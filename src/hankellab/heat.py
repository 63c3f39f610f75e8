"""Bessel heat kernel, semigroup action, Gaussian bounds, maximal field.

The maximal function sup_t |T_t f| of the H^1 sweep is _maximal_field: it
applies the Gaussian multiplier e^{-t|lambda|^2} to a spectrum, or a batch
of them, and inverts the times in a few contractions that skip the rows
the damping leaves below 1e-16.  Its oracle, the kernel route, which
applies heat_apply at each time, is maximal_function in
tests/paper_checks.py.

The one-dimensional kernel is evaluated in exponentially-scaled form: the
exp(-(x^2+y^2)/4t) factor and the e^{+xy/2t} hidden in the modified Bessel
function recombine into exp(-(x-y)^2/4t) times a scaled Bessel factor, so
nothing overflows for xy/2t large.  It is evaluated in place, in two
arrays of the broadcast shape, so that a one-axis heat matrix
(axis_heat_matrix) costs two matrices.  The d-dimensional kernel is the
product of the one-dimensional ones.

The per-axis normalization is HEAT_NORMALIZATION, the closed form
c_k = 1/2 for every alpha_k, which Weber's integral gives for mass 1; the
test suite re-derives it from the mass-1 condition by quadrature.
"""

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .grid import GridFunction
from .report import FAIL, PASS, EstimateReport
from .specfun import MultiIndex, inorm_scaled
from .transform import _contract, _weighted

# the per-axis constant c_k of the heat kernel, 1/2 for every alpha_k
HEAT_NORMALIZATION = 0.5
# _maximal_field rounds each time's kept rows per axis up to a multiple of
# ROW_GRANULE, so that neighbouring times share one contraction, and
# contracts at most FIELD_COLUMNS (batch entry, time) columns at once, which
# bounds the block of fields it holds
ROW_GRANULE = 64
FIELD_COLUMNS = 128


@dataclass(frozen=True)
class TimeGrid:
    """Log-spaced positive times over which suprema are taken."""

    t_values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_values, dtype=float)
        if t.size == 0 or np.any(t <= 0) or np.any(np.diff(t) <= 0):
            raise ValueError("t_values must be strictly increasing and positive")
        t.setflags(write=False)
        object.__setattr__(self, "t_values", t)


# base ** e elementwise, each power rounded as a float's own ** (the C
# library's pow) rounds it, so that a kernel evaluated on many times at once
# gives the floats it gives one time at a time: numpy's vectorized power
# rounds up to one value in twenty differently on an AVX-512 host
_float_pow = np.vectorize(pow, otypes=[float])


def _axis_kernel(alpha_k, t, x, y):
    """One-dimensional heat kernel, scaled evaluation; broadcasts x, y.

    Evaluated in two arrays of the broadcast shape: the Bessel factor in
    place of its argument xy/2t, the Gaussian factor in the other, which
    then takes the prefactor and the Bessel factor and is returned."""
    nu = alpha_k - 0.5
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    bessel = np.multiply(x, y, out=np.empty(shape))
    bessel /= 2.0 * t
    inorm_scaled(nu, bessel, out=bessel)
    out = np.subtract(x, y, out=np.empty(shape))
    np.square(out, out=out)
    np.negative(out, out=out)
    out /= 4.0 * t
    np.exp(out, out=out)
    out *= HEAT_NORMALIZATION / t * _float_pow(2.0 * t, -nu)
    out *= bessel
    return out


@dataclass(frozen=True)
class HeatKernelEval:
    """Closed-form heat kernel evaluator with the per-axis normalization
    HEAT_NORMALIZATION; alpha may be given as numbers, as for Grid.build."""

    alpha: MultiIndex

    def __post_init__(self):
        if not isinstance(self.alpha, MultiIndex):
            object.__setattr__(
                self, "alpha", MultiIndex(tuple(np.atleast_1d(self.alpha))))


def heat_kernel(hk: HeatKernelEval, t, x, y):
    """T_t(x, y), product over axes; x and y broadcast with last axis = d."""
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = 1.0
    for k, a in enumerate(hk.alpha.alpha):
        out = out * _axis_kernel(a, t, x[..., k], y[..., k])
    return out


def axis_heat_matrix(alpha_k, t, ax, rows=slice(None)):
    """The one-axis heat kernel T_t(x_i, y_j) times the weight of y_j, for
    the nodes x_i of ax in rows and every node y_j: applied to an axis
    factor, it gives that factor's T_t on those rows.  The weights are
    applied in place, so the matrix costs _axis_kernel's two arrays."""
    out = _axis_kernel(alpha_k, t, ax.nodes[rows, None], ax.nodes[None, :])
    out *= ax.quad_weights
    return out


def heat_apply(hk: HeatKernelEval, t, f: GridFunction):
    """Quadrature application of the heat kernel: T_t f."""
    if t <= 0:
        raise ValueError("t must be positive")
    mats = [axis_heat_matrix(a, t, ax)
            for a, ax in zip(hk.alpha.alpha, f.grid.axes, strict=True)]
    return GridFunction(f.grid, _contract(mats, f.values))


def _maximal_field(plan, spec_vals, tg: TimeGrid):
    """sup over the time grid of |H(e^{-t|lambda|^2} spec_vals)|; axes of
    spec_vals past the plan's d are a batch, kept in the field.

    Only the dual rows where spec_vals != 0 for some batch entry are
    contracted: per axis, the rows from the first to the last such one (a
    dyadic window's band is one interval of the sorted dual axis; a symbol
    nonzero everywhere keeps the whole axis).  Within that band a time
    keeps, per axis, the prefix of rows whose own damping e^{-t lambda_k^2}
    reaches 1e-16.  Since |lambda|^2 >= lambda_k^2, every dropped row is
    damped below 1e-16 at each of its nodes, and a time with an empty
    prefix on some axis is skipped.  Consecutive times whose prefixes,
    rounded up to a multiple of ROW_GRANULE rows, agree are contracted
    together along a trailing time axis, in one _contract call per group of
    at most FIELD_COLUMNS (batch entry, time) columns."""
    d = plan.grid.d
    batch = spec_vals.shape[d:]
    out = np.zeros(plan.grid.shape + batch)
    hit = np.nonzero(np.any(spec_vals != 0,
                            axis=tuple(range(d, spec_vals.ndim))))
    if not hit[0].size:
        return out
    rows = tuple(slice(i.min(), i.max() + 1) for i in hit)
    dual = plan.dual_grid.restrict(rows)
    vals = _weighted(dual.weight_tensor(), spec_vals[rows])
    lam2 = dual.squared_mesh().sum(axis=-1)
    t = tg.t_values
    kept = np.stack([np.count_nonzero(
        np.exp(-np.multiply.outer(t, ax.nodes**2)) >= 1e-16, axis=1)
        for ax in dual.axes], axis=-1)
    kept = np.minimum(-(-kept // ROW_GRANULE) * ROW_GRANULE,
                      [ax.n for ax in dual.axes])
    step = max(1, FIELD_COLUMNS // int(np.prod(batch)))
    stop = 0
    for prefix, group in groupby(kept.tolist()):
        start, stop = stop, stop + len(list(group))
        if min(prefix) == 0:
            continue
        sub = tuple(slice(0, p) for p in prefix)
        mats = tuple(M[:, s.start:s.start + p]
                     for M, s, p in zip(plan.inv, rows, prefix))
        for lo in range(start, stop, step):
            damp = np.exp(-lam2[sub][..., None] * t[lo:min(lo + step, stop)])
            damp = damp.reshape(damp.shape[:d] + (1,) * len(batch) + (-1,))
            fields = np.abs(_contract(mats, vals[sub][..., None] * damp))
            np.maximum(out, fields.max(axis=-1), out=out)
    return out


def _local_ball_measure(alpha: MultiIndex, x, r):
    """nu(B(x,r) cap X) up to doubling-equivalence: product of per-axis
    interval measures.  Exact for d = 1."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = 1.0
    for k, a in enumerate(alpha.alpha):
        lo = np.maximum(0.0, x[..., k] - r)
        hi = x[..., k] + r
        e = 2.0 * a + 1.0
        out = out * (_float_pow(hi, e) - _float_pow(lo, e)) / e
    return out


# the fixed decay rate c in the Gaussian bound exp(-c |x-y|^2 / t)
GAUSSIAN_DECAY = 0.125


def gaussian_bound_check(hk: HeatKernelEval, samples):
    """Positivity, the Gaussian upper bound with decay rate GAUSSIAN_DECAY,
    and the two-regime asymptotic bands of the kernel.

    samples: array of (t, x, y) with x, y shaped (d,).  The Gaussian-bound
    constant is the maximal T_t(x,y) nu(B(x,sqrt t)) exp(c |x-y|^2/t)
    over the sample; the regime bands use the per-axis factorization and are
    reported as max/min ratios.  Each axis's kernel is evaluated once, on
    all samples, for both its factor of T_t and its band entries.
    """
    band_tol = 10.0
    rep = EstimateReport(
        name="heat_gaussian_bound",
        parameters={"c_exp": GAUSSIAN_DECAY, "n_samples": len(samples),
                    "alpha": list(hk.alpha.alpha), "band_tol": band_tol},
        provenance="heat kernel Gaussian bound and two-regime asymptotics",
    )
    t, x, y = (np.array(column, float) for column in zip(*samples))
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    T, dist2 = 1.0, 0.0
    band_small, band_large = [], []
    for k, a in enumerate(hk.alpha.alpha):
        xk, yk = x[:, k], y[:, k]
        Tk = _axis_kernel(a, t, xk, yk)
        T = T * Tk
        dist2 = dist2 + (xk - yk) ** 2
        # per-axis two-regime ratios (our measure convention: x^{2a} dx)
        sm = xk * yk < t
        lg = ~sm
        band_small.append(
            Tk[sm] * _float_pow(t[sm], (2 * a + 1) / 2) * np.exp(
                (_float_pow(xk[sm], 2) + _float_pow(yk[sm], 2)) / (4 * t[sm])))
        band_large.append(
            Tk[lg] * _float_pow(t[lg], 0.5) * _float_pow(xk[lg] * yk[lg], a)
            * np.exp(_float_pow(xk[lg] - yk[lg], 2) / (4 * t[lg])))
    Cs = (T * _local_ball_measure(hk.alpha, x, np.sqrt(t))
          * np.exp(GAUSSIAN_DECAY * dist2 / t))
    neg = float(np.min(T, initial=0.0))
    rep.fitted_constants["C_gauss"] = float(np.max(Cs))
    rep.fitted_constants["min_kernel_value"] = neg
    ok = neg >= 0.0 and np.isfinite(np.max(Cs))
    for label, band in (("small_regime", band_small), ("large_regime", band_large)):
        band = np.concatenate(band)
        if band.size:
            ratio = float(np.max(band) / np.min(band))
            rep.fitted_constants[f"band_ratio_{label}"] = ratio
            rep.add(f"band_ratio_{label}", ratio)
            ok = ok and ratio <= band_tol
    rep.verdict = PASS if ok else FAIL
    return rep
