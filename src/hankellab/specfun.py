"""Special functions: the normalized Bessel kernels u^{-nu} J_nu(u) and
e^{-u} u^{-nu} I_nu(u), Gamma(1 + i g), and the one-axis factor of the
eigenfunction kernel of the Bessel operator (the transform plans take the
product over axes).

Each kernel has one route per order, and both take every order nu > -1,
which is every alpha_k = nu + 1/2 > -1/2 that MultiIndex allows, up to the
cap that check_tabled states.  Every order, nu = 0 included, is evaluated
from a fixed-order table of Taylor polynomials on cells of width 1/8, cell
0 holding the power series: one cell lookup and Horner pass per argument
below the table's end, and the large-argument expansion from there on.  The
tables seed themselves from their own power series, ODE and expansion; no
scipy function is called.  They are built on first use, grown when an
argument reaches the end, and the last few orders' tables are kept.

Everything here is vectorized over numpy arrays; the only state is that
cache of read-only tables, which a lock guards, so evaluation is safe from
any number of workers.  The kernels write into a new array or, given out,
into the caller's; out may be the argument array itself, so that the
values take no second array.  The per-block buffers belong to each call.
"""

import cmath
import decimal
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


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
# A table evaluates its order on [0, end) by a degree-_TAYLOR_DEGREE Taylor
# polynomial about the nearest of the cell centres i h, h = _CELL; from end
# on the first _EXPANSION_TERMS terms of the large-argument expansion (DLMF
# 10.17.3 for J, 10.40.1 for the scaled I) take over.  Both functions are
# entire, so cell 0 holds the power series itself.  Every other cell's
# coefficients come from the function's ODE, given its value and slope at
# the centre (the seeds).  The seeds are:
# - the power series up to max(1/2, (2nu+25)/32); past it the ODE's singular
#   solution u^{-2nu} would grow in the continuation's Taylor steps;
# - from there to upper, the series continued along the ODE in
#   degree-_SEED_DEGREE Taylor steps of h, the value and slope carried in
#   _CONTINUATION_DIGITS-digit decimal arithmetic, so that the round-off of
#   some hundreds of steps does not reach the float seeds; the terms of
#   order h^2 and up are summed in floats, which moves the seeds by about
#   one unit in their last place against all-decimal steps;
# - from upper on, the expansion.  upper is where its first omitted term
#   falls below _EXPANSION_TOL of the envelope u^{-nu-1/2} at the orders nu
#   and nu + 1 (the slope is the order nu + 1); it grows like nu^2.
# end is the least power of two at least upper and above the arguments, but
# not past _END unless upper is; an order whose upper passes _MAX_END has no
# table (check_tabled).

_CELL = 0.125
_TAYLOR_DEGREE = 9
_SERIES_TERMS = 13
_SEED_DEGREE = 24
_CONTINUATION_DIGITS = 34
_EXPANSION_TERMS = 16
_EXPANSION_TOL = 1e-16
# below this the scaled I expansion would miss its e^{-2u} companion term
_MIN_UPPER = 20.0
# past the largest argument of the CLI's plans, 2,599 in h1-check, but for
# 1e4 of its 3.8e6 points
_END = 2048.0
_MAX_END = 4096.0
# points per evaluation block, so that the temporaries stay in cache
_BLOCK = 1 << 14


@dataclass(frozen=True)
class _Table:
    coefs: np.ndarray   # (degree + 1, cells): Taylor coefficients per cell
    end: float          # the expansion takes over from here
    expansion: np.ndarray  # signed a_k(nu), k < _EXPANSION_TERMS


def _expansion_coefs(nu, terms):
    """a_k(nu) of DLMF 10.17.1, k < terms."""
    a = np.empty(terms)
    a[0] = 1.0
    for k in range(1, terms):
        a[k] = a[k - 1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k)
    return a


def _signed_expansion(kind, nu):
    """The expansion's coefficients with their signs: (-1)^k for I, and for
    J (-1)^k on a_{2k} in P and on a_{2k+1} in Q."""
    k = np.arange(_EXPANSION_TERMS)
    return (_expansion_coefs(nu, _EXPANSION_TERMS)
            * (-1.0) ** (k if kind == "I" else k // 2))


def _upper(nu):
    """Where the expansion holds to _EXPANSION_TOL at the orders nu and
    nu + 1, not below _MIN_UPPER."""
    out = _MIN_UPPER
    for order in (nu, nu + 1.0):
        a = _expansion_coefs(order, _EXPANSION_TERMS + 2)
        out = max([out] + [(abs(a[k]) / _EXPANSION_TOL) ** (1.0 / k)
                           for k in (_EXPANSION_TERMS, _EXPANSION_TERMS + 1)])
    return out


def check_tabled(alpha, what):
    """Raise ValueError about what unless the kernel order alpha_k - 1/2 of
    every alpha_k in alpha has a table: its upper must not pass _MAX_END,
    which admits alpha_k up to about 74.7."""
    worst = max(alpha)
    if _upper(worst - 0.5) > _MAX_END:
        raise ValueError(
            f"{what}: the Bessel kernel table of the order alpha_k - 1/2 = "
            f"{worst - 0.5:g} would need more than "
            f"{int(_MAX_END / _CELL) + 1} cells")


def _even_series(kind, nu):
    """b_m, m < _SERIES_TERMS: u^{-nu} J_nu(u) = sum_m b_m u^{2m}, and
    u^{-nu} I_nu(u) the same with every b_m positive."""
    b = [1.0 / (2.0**nu * math.gamma(nu + 1.0))]
    for m in range(1, _SERIES_TERMS):
        b.append(b[-1] * (-0.25 if kind == "J" else 0.25) / (m * (m + nu)))
    return b


def _ode_taylor(kind, nu, c, f, df, degree):
    """Taylor coefficients about c != 0, to degree, of the solution with value
    f and slope df of u f'' + (2nu+1) f' + u f = 0 (kind "J") or of
    u h'' + (2u+2nu+1) h' + (2nu+1) h = 0 (kind "I"); c, f and df may be
    floats or float arrays over centres."""
    t = [f, df]
    for m in range(degree - 1):
        if kind == "J":
            num = ((m + 1) * (m + 2 * nu + 1) * t[m + 1] + c * t[m]
                   + (t[m - 1] if m else 0))
        else:
            num = ((m + 1) * (m + 2 * c + 2 * nu + 1) * t[m + 1]
                   + (2 * m + 2 * nu + 1) * t[m])
        t.append(-num / (c * (m + 1) * (m + 2)))
    return t


def _horner(coefs, x):
    """sum_k coefs[k] x^k."""
    acc = np.full_like(x, coefs[-1])
    for ck in coefs[-2::-1]:
        acc *= x
        acc += ck
    return acc


def _continued(kind, nu, c, f, df, steps):
    """(values, slopes) at c + i h, 0 < i <= steps, continued along the ODE
    from the value f and slope df at c.

    A step's Taylor coefficients t_k are linear in the value and slope it
    starts from, t_k = f p_k + f' q_k.  For k >= 2 they enter the step's
    sums times h^k <= 1/64, so p_k and q_k are taken in floats, for every
    step's centre at once; the value and slope that the steps carry, and
    the sums that add each step to them, are kept in decimal."""
    centres = c + _CELL * np.arange(steps)
    maps = []
    for unit in (1.0, 0.0), (0.0, 1.0):
        t = _ode_taylor(kind, nu, centres, *unit, _SEED_DEGREE)
        # sum_{k>=2} t_k h^(k-2) and sum_{k>=2} k t_k h^(k-2)
        a = b = 0.0
        for k in range(_SEED_DEGREE, 1, -1):
            a = a * _CELL + t[k]
            b = b * _CELL + k * t[k]
        maps += [a, b]
    vals, slopes = [], []
    with decimal.localcontext() as ctx:
        ctx.prec = _CONTINUATION_DIGITS
        f, df = decimal.Decimal(f), decimal.Decimal(df)
        h = decimal.Decimal(_CELL)
        for pa, pb, qa, qb in zip(*(map(decimal.Decimal, m.tolist())
                                    for m in maps)):
            f, df = (f + h * (df + h * (f * pa + df * qa)),
                     df + h * (f * pb + df * qb))
            vals.append(float(f))
            slopes.append(float(df))
    return vals, slopes


def _expansion_value(kind, nu, expansion, u):
    """The large-argument expansion with the signed coefficients of nu."""
    w = 1.0 / u
    out = u ** (-nu - 0.5)
    if kind == "I":
        out *= _horner(expansion, w)
        out *= 1.0 / np.sqrt(2.0 * np.pi)
        return out
    # J_nu(u) sqrt(pi u / 2) = P cos(u - phi) - Q sin(u - phi); cos(u - phi)
    # and sin(u - phi) are expanded so that only u itself is reduced
    w2 = w * w
    p = _horner(expansion[0::2], w2)
    q = _horner(expansion[1::2], w2)
    q *= w
    phi = (0.5 * nu + 0.25) * np.pi
    cphi, sphi = np.cos(phi), np.sin(phi)
    out *= np.sqrt(2.0 / np.pi)
    return out * (np.cos(u) * (cphi * p + sphi * q)
                  + np.sin(u) * (sphi * p - cphi * q))


@lru_cache(maxsize=8)
def _seeds(kind, nu):
    """(upper, values, slopes): the seeds at the centres i h below upper,
    from the power series and its continuation."""
    check_tabled((nu + 0.5,), f"order nu = {nu}")
    upper = _upper(nu)
    c = _CELL * np.arange(int(np.ceil(upper / _CELL)))
    f, df = np.empty_like(c), np.empty_like(c)
    # the power series and its derivative, in u^2
    b = _even_series(kind, nu)
    near = int(max(0.5, (2.0 * nu + 25.0) / 32.0) / _CELL) + 1
    u, u2 = c[:near], c[:near] ** 2
    f[:near] = _horner(b, u2)
    df[:near] = 2.0 * u * _horner([m * bm for m, bm in enumerate(b)][1:], u2)
    if kind == "I":
        df[:near] -= f[:near]
        for arr in (f, df):
            arr[:near] *= np.exp(-u)
    f[near:], df[near:] = _continued(kind, nu, c[near - 1], f[near - 1],
                                     df[near - 1], c.size - near)
    for arr in (f, df):
        arr.setflags(write=False)
    return upper, f, df


def _table_end(kind, nu, top):
    """The end of the table that serves arguments up to top: the least power
    of two that is at least the order's upper and above top, or at least
    _END where top is not below it."""
    end = 2.0 ** math.ceil(math.log2(max(_seeds(kind, nu)[0],
                                         min(top, _END))))
    return end if end > top or end >= _END else 2.0 * end


def _build_table(kind, nu, end):
    """The fixed-order table of u^{-nu} J_nu (kind "J") or of
    e^{-u} u^{-nu} I_nu (kind "I") on [0, end)."""
    f, df = _seeds(kind, nu)[1:]
    expansion = _signed_expansion(kind, nu)
    c = _CELL * np.arange(int(end / _CELL) + 1)
    # from upper on, the expansion, its slope from the order nu + 1
    u = c[f.size:]
    f = np.concatenate([f, _expansion_value(kind, nu, expansion, u)])
    g = u * _expansion_value(kind, nu + 1.0, _signed_expansion(kind, nu + 1.0),
                             u)
    df = np.concatenate([df, -g if kind == "J" else g - f[-u.size:]])
    coefs = np.empty((_TAYLOR_DEGREE + 1, c.size))
    coefs[:, 1:] = _ode_taylor(kind, nu, c[1:], f[1:], df[1:],
                               _TAYLOR_DEGREE)
    # cell 0: the series in u, times the series of e^{-u} for I
    series = np.zeros(_TAYLOR_DEGREE + 1)
    series[0::2] = _even_series(kind, nu)[:_TAYLOR_DEGREE // 2 + 1]
    if kind == "I":
        k = np.arange(_TAYLOR_DEGREE + 1)
        series = np.convolve(series, (-1.0) ** k
                             / np.cumprod(np.maximum(k, 1)))
    coefs[:, 0] = series[:_TAYLOR_DEGREE + 1]
    for arr in (coefs, expansion):
        arr.setflags(write=False)
    return _Table(coefs, float(end), expansion)


# the tables of the _TABLES_KEPT orders last used, the latest last; an
# order's table is rebuilt longer when an argument reaches its end
_TABLES = {}
_TABLES_KEPT = 8
_TABLES_LOCK = threading.Lock()


def _table(kind, nu, top):
    """The order's table for arguments up to top."""
    end = _table_end(kind, nu, top)
    with _TABLES_LOCK:
        tb = _TABLES.pop((kind, nu), None)
        if tb is None or tb.end < end:
            tb = _build_table(kind, nu, end)
        _TABLES[kind, nu] = tb
        if len(_TABLES) > _TABLES_KEPT:
            del _TABLES[next(iter(_TABLES))]
    return tb


def _fixed_order(kind, nu, u, out):
    """The kind's function at the order nu on every point of u: its table
    cell's Taylor polynomial below the table's end, the expansion from there
    on, one cache-sized block at a time.  Raises ValueError unless every
    u is finite and >= 0.

    The values go to a new array when out is None, else into out, which is
    then returned: a C-contiguous float64 array of u's shape, possibly u
    itself.  A block reads all of its arguments before it writes its
    values, so evaluating in place gives the same values bit for bit."""
    nu = _check_order(nu)
    u = np.asarray(u, dtype=float)
    if out is not None:
        if not (isinstance(out, np.ndarray) and out.shape == u.shape
                and out.dtype == np.float64 and out.flags.c_contiguous):
            raise ValueError("out must be a C-contiguous float64 array of "
                             f"the argument's shape {u.shape}")
        if out is not u and np.may_share_memory(out, u):
            u = u.copy()
    low, top = (u.min(), u.max()) if u.size else (0.0, 0.0)
    if not (low >= 0.0 and top < np.inf):
        raise ValueError("argument must be finite and >= 0")
    tb = _table(kind, nu, top)
    tail = top >= tb.end  # some points take the expansion
    flat = u.reshape(-1)
    result = np.empty_like(flat) if out is None else out.reshape(-1)
    # per-block buffers: the cell index, the offset s from its centre, and
    # one row of coefficients
    size = min(flat.size, _BLOCK)
    idx, s, row_at = np.empty(size, np.intp), np.empty(size), np.empty(size)
    for lo in range(0, flat.size, _BLOCK):
        ub, ob = flat[lo:lo + _BLOCK], result[lo:lo + _BLOCK]
        ib, sb, rb = idx[:ub.size], s[:ub.size], row_at[:ub.size]
        if tail:
            # the expansion's arguments, copied before ob is written
            far = ub >= tb.end
            big = ub[far]
            ub = np.where(far, 0.0, ub)
        np.multiply(ub, 1.0 / _CELL, sb)
        np.rint(sb, sb)
        np.copyto(ib, sb, casting="unsafe")
        sb *= _CELL
        np.subtract(ub, sb, sb)
        tb.coefs[-1].take(ib, None, ob, "clip")
        for row in tb.coefs[-2::-1]:
            ob *= sb
            ob += row.take(ib, None, rb, "clip")
        if tail and big.size:
            ob[far] = _expansion_value(kind, nu, tb.expansion, big)
    return result.reshape(u.shape)[()] if out is None else out


def jnorm(nu, u, out=None):
    """Normalized Bessel u^{-nu} J_nu(u), nu > -1, finite u >= 0, extended
    continuously to u = 0, where it is 1 / (2^nu Gamma(nu+1)).

    This is the single-axis factor of the eigenfunction kernel, written with
    nu = alpha_k - 1/2.  Every order, nu = 0 included, goes through its
    fixed-order table: one cell lookup and Horner pass below the table's
    end, the large-argument expansion from there on.  out, when given,
    receives the values as in _fixed_order, and may be u itself.
    """
    return _fixed_order("J", nu, u, out)


def inorm_scaled(nu, u, out=None):
    """Scaled normalized modified Bessel e^{-u} u^{-nu} I_nu(u), nu > -1,
    finite u >= 0; out, when given, receives the values as in _fixed_order,
    and may be u itself.

    Every order goes through its fixed-order table: cell 0 holds the power
    series, which avoids the cancellation that the power*ive product
    suffers for nu near -1 (alpha near -1/2 in the heat kernel), and from
    the table's end on the large-argument expansion holds at any argument
    (cephes ive returns nan near u ~ 1e9).
    """
    return _fixed_order("I", nu, u, out)


# Bernoulli numbers B_2, B_4, ..., B_14 for Stirling's series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def gamma_one_plus_i(g):
    """Gamma(1 + i g) for real g.

    The modulus is sqrt(pi g / sinh(pi g)) (DLMF 5.4.3).  The phase is the
    imaginary part of Stirling's series for log Gamma (DLMF 5.11.1), taken
    at z = 1 + i g + N with |z| >= 17 and brought back by
    Gamma(z + 1) = z Gamma(z).
    """
    g = float(g)
    x = math.pi * abs(g)
    if x == 0.0:
        return 1.0 + 0.0j
    modulus = (math.sqrt(x / math.sinh(x)) if x < 20.0
               else math.exp(0.5 * (math.log(2.0 * x) - x)))
    z, phase = complex(1.0, g), 0.0
    while abs(z) < 17.0:
        phase -= cmath.phase(z)
        z += 1.0
    w = 1.0 / z
    series = sum(b / (2 * k * (2 * k - 1)) * w ** (2 * k - 1)
                 for k, b in enumerate(_BERNOULLI, start=1))
    phase += ((z - 0.5) * cmath.log(z) - z + series).imag
    return cmath.rect(modulus, phase)


def e_kernel_axis(alpha_k, u, out=None):
    """One-axis eigenfunction factor (u)^{-alpha_k+1/2} J_{alpha_k-1/2}(u),
    written into out when given (jnorm), which may be u itself."""
    return jnorm(alpha_k - 0.5, u, out)
