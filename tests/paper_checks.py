"""Lemma checks behind the acceptance criteria, and the reference operators
they and the unit tests compare the package against.

The CLI suites test the paper's theorems: T_m = H(m H f) bounded on
L^p(dnu), of weak type (1,1), and bounded on the Coifman-Weiss H^1.  The
checks here test the lemmas those proofs rest on, and only the test suite
calls them:
  bessel_operator_fd              the finite-difference Bessel operator,
                                  oracle of the eigenfunction identity
  dilate                          the L^1-normalized dilation f_t
  dilation_identity_check         tau^y(f_t) = (tau^{t y} f)_t
  off_diagonal_decay_check        tail integrals of translated dilates
  young_inequality_residual       ||f natural g||_1 <= ||f||_1 ||g||_1
  maximal_function                sup_t |T_t f| by the kernel route, the
                                  oracle of heat._maximal_field
  heat_lipschitz_check            L^1 Lipschitz continuity of T_1(., y)
  association_check               T_m f against its assembled kernel
  weighted_transform_bound_check  the weighted transform bound of
                                  Lemmas 2.1 and 2.2
  battery_functions               the L^p probe's battery as value
                                  tensors, the dense route's input

Reports are the package's EstimateReport, judged as the suites judge
theirs.  scipy serves dilate's cubic resampling.
"""

import warnings

import numpy as np
from scipy.interpolate import CubicSpline

from hankellab.dyadic import make_partition
from hankellab.grid import (Grid, GridFunction, WeightSpec, integrate, norm,
                            product_values)
from hankellab.heat import (HeatKernelEval, TimeGrid, heat_apply,
                            heat_kernel)
from hankellab.multiplier import (_symbol_values, apply_multiplier,
                                  dyadic_symbol_values)
from hankellab.report import FAIL, PASS, EstimateReport, flatness
from hankellab.sobolev import SpectralTailWarning, local_sobolev_norm
from hankellab.specfun import MultiIndex
from hankellab.symbols import Symbol, bump_symbol, oscillatory_symbol
from hankellab.transform import TransformPlan, convolve, translate


class MassDeficitWarning(UserWarning):
    """Dilation pushed mass beyond the truncation radius."""


def loglog_slope(x, y):
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# the Bessel operator

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


# ---------------------------------------------------------------------------
# dilation and the translation identities

def dilate(f: GridFunction, t):
    """L^1-normalized dilation f_t(x) = t^Q f(t x), resampled on f's grid.

    Off-node values come from axiswise cubic interpolation; arguments beyond
    the truncation radius are set to 0 and the lost mass (only possible for
    t < 1) is measured on the original grid and warned about when it exceeds
    1e-8 of the total.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    g = f.grid
    vals = np.asarray(f.values, dtype=complex)
    for k, ax in enumerate(g.axes):
        targets = t * ax.nodes
        spline = CubicSpline(ax.nodes, vals, axis=k, extrapolate=True)
        new = spline(targets)
        oob = targets > ax.nodes[-1]
        if np.any(oob):
            idx = [slice(None)] * vals.ndim
            idx[k] = oob
            new[tuple(idx)] = 0.0
        vals = new
    if t < 1.0:
        total = abs(integrate(abs(f)))
        if total > 0:
            inside = np.ones(g.shape, dtype=bool)
            for k, ax in enumerate(g.axes):
                sh = [1] * g.d
                sh[k] = ax.n
                inside &= (ax.nodes <= t * ax.R).reshape(sh)
            lost = total - float(np.sum(
                np.abs(f.values) * np.where(inside, g.weight_tensor(), 0.0)))
            if lost > 1e-8 * total:
                warnings.warn(
                    f"dilate: {lost / total:.2e} relative mass beyond truncation",
                    MassDeficitWarning,
                )
    return GridFunction(g, (t ** g.alpha.Q) * vals)


def dilation_identity_check(plan, f, t, y):
    """Check tau^y(f_t) = (tau^{t y} f)_t; both sides computed independently."""
    tol = 1e-5
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lhs = translate(plan, dilate(f, t), y)
    rhs = dilate(translate(plan, f, t * y), t)
    diff = lhs - rhs
    sup = norm(diff, np.inf)
    l1 = norm(diff, 1.0)
    scale = max(norm(lhs, np.inf), 1e-300)
    rep = EstimateReport(
        name="dilation_translation_identity",
        parameters={"t": t, "y": y.tolist(), "tol": tol},
        provenance="translation/dilation commutation identity",
    )
    rep.add("sup_discrepancy", sup)
    rep.add("l1_discrepancy", l1)
    rep.add("relative_sup", sup / scale)
    rep.fitted_constants["relative_sup"] = sup / scale
    rep.verdict = PASS if sup / scale <= tol else FAIL
    return rep


def off_diagonal_decay_check(plan, f, delta, y, r_values, t_values):
    """Tail-integral decay of translated dilates over an (r, t) lattice.

    Measures B(r, t) = int_{|x-y|>r} |tau^y(f_t)| dnu against the bound
    C (r t)^{-delta} ||f||_{L^1(w^delta dnu)}; passes when the fitted
    log-log slope of B in (r t) is <= -delta + slope_slack and the
    constant C = max B (rt)^delta / ||f||_{1,delta} is finite.
    """
    slope_slack = 0.1
    y = np.atleast_1d(np.asarray(y, dtype=float))
    mesh = np.stack(plan.grid.meshgrid(), axis=-1)
    dist = np.sqrt(np.sum((mesh - y) ** 2, axis=-1))
    wts = plan.grid.weight_tensor()
    fnorm = norm(f, 1.0, WeightSpec(delta=delta))
    rep = EstimateReport(
        name="off_diagonal_decay",
        parameters={"delta": delta, "y": y.tolist(),
                    "r_values": list(map(float, r_values)),
                    "t_values": list(map(float, t_values))},
        provenance="tail integral of translated dilates vs (rt)^{-delta}",
    )
    rts, tails = [], []
    for t in t_values:
        g = np.abs(translate(plan, dilate(f, t), y).values)
        for r in r_values:
            B = float(np.sum(g[dist > r] * wts[dist > r]))
            rep.add(f"tail@r={r:.3g},t={t:.3g}", B)
            if B > 0:
                rts.append(r * t)
                tails.append(B)
    rts, tails = np.asarray(rts), np.asarray(tails)
    slope = loglog_slope(rts, tails)
    C = float(np.max(tails * rts**delta) / fnorm)
    rep.fitted_constants["slope"] = slope
    rep.fitted_constants["C_offdiag"] = C
    rep.verdict = PASS if (slope <= -delta + slope_slack and np.isfinite(C)) else FAIL
    return rep


def young_inequality_residual(plan, f, g):
    """Ratio ||f natural g||_1 / (||f||_1 ||g||_1); <= 1 up to quadrature
    noise for f, g >= 0."""
    return norm(convolve(plan, f, g), 1.0) / (norm(f, 1.0) * norm(g, 1.0))


# ---------------------------------------------------------------------------
# the heat semigroup

def maximal_function(hk: HeatKernelEval, tg: TimeGrid, f: GridFunction):
    """Pointwise max over the time grid of |T_t f| by the kernel route (a
    lower bound for the continuous supremum; the t-grid used is recorded by
    the caller).  It is the oracle for the spectral route, _maximal_field.
    """
    best = np.zeros(f.grid.shape)
    for t in tg.t_values:
        np.maximum(best, np.abs(heat_apply(hk, t, f).values), out=best)
    return GridFunction(f.grid, best)


def heat_lipschitz_check(hk: HeatKernelEval, grid: Grid, pairs):
    """Lipschitz continuity in L^1: ratio of the difference integral
    int |T_1(., y) - T_1(., y')| dnu to |y - y'| over pairs spanning
    several decades; passes when the ratios sit in a bounded band with no
    growth trend as |y - y'| -> 0."""
    band_factor = 2.0
    seps, ratios = [], []
    mesh = np.stack(grid.meshgrid(), axis=-1)
    for y, yp in pairs:
        y = np.atleast_1d(np.asarray(y, float))
        yp = np.atleast_1d(np.asarray(yp, float))
        sep = float(np.linalg.norm(y - yp))
        if sep == 0.0:
            raise ValueError("pairs must have y != y'")
        diff = np.abs(heat_kernel(hk, 1.0, mesh, y) - heat_kernel(hk, 1.0, mesh, yp))
        val = float(np.sum(diff * grid.weight_tensor()))
        seps.append(sep)
        ratios.append(val / sep)
    rep = EstimateReport(
        name="heat_lipschitz_l1",
        parameters={"alpha": list(hk.alpha.alpha), "band_factor": band_factor},
        provenance="L^1 Lipschitz continuity of the time-1 heat kernel",
    )
    for s, r in zip(seps, ratios):
        rep.add(f"ratio@sep={s:.3e}", r)
    ratios = np.asarray(ratios)
    # growth trend toward small separations: slope of ratio vs log(1/sep)
    band, slope = flatness(seps, ratios / ratios.mean())
    trend = -slope
    rep.fitted_constants["band_ratio"] = band
    rep.fitted_constants["small_sep_trend"] = trend
    rep.fitted_constants["C_lipschitz"] = float(ratios.max())
    rep.verdict = PASS if (band <= band_factor and trend <= 0.1) else FAIL
    return rep


# ---------------------------------------------------------------------------
# kernel association

def resolvable_j_band(plan):
    """Dyadic indices j in -20..20 whose annulus 2^{(j-1)/2} <= |lambda|
    <= 2^{(j+1)/2} holds at least 8 dual nodes inside the truncation
    radius."""
    r2 = np.sqrt(np.sum(plan.dual_grid.squared_mesh(), axis=-1))
    lam_max = float(np.sqrt(sum(ax.R**2 for ax in plan.dual_grid.axes)))
    band = []
    for j in range(-20, 21):
        if 2.0 ** ((j + 1) / 2.0) > lam_max:
            continue
        cnt = int(np.count_nonzero(
            (r2 >= 2.0 ** ((j - 1) / 2.0)) & (r2 <= 2.0 ** ((j + 1) / 2.0))
        ))
        if cnt >= 8:
            band.append(j)
    return band


def _kernel_row(plan, mvals, y):
    """tau^y H(m) evaluated on the plan's grid, via H(E_y m)."""
    return plan.inverse(mvals * plan.e_dual(np.atleast_1d(y)))


def association_check(plan: TransformPlan, m: Symbol, f: GridFunction,
                      x_samples):
    """Kernel association: T_m f(x) (spectral) against the integral of the
    assembled kernel row against f, at points x off the support of f.

    The kernel is assembled from the partial partition sum over the plan's
    resolvable dyadic band; discrepancies are reported relative to the sup
    of T_m f over the grid and pass up to tol.
    """
    tol = 1e-3
    psi = make_partition("plain")
    band = resolvable_j_band(plan)
    mvals = _symbol_values(plan.dual_grid, m)
    m_band = sum(dyadic_symbol_values(plan.dual_grid, mvals, psi, j)
                 for j in band)
    tmf = apply_multiplier(plan, mvals, f)
    scale = float(np.max(np.abs(tmf.values)))
    wts = plan.grid.weight_tensor()
    rep = EstimateReport(
        name="kernel_association",
        parameters={"symbol": m.name, "j_band": [band[0], band[-1]],
                    "tol": tol, "n_samples": len(x_samples)},
        provenance="agreement of the spectral route with the kernel integral",
    )
    worst = 0.0
    for x in x_samples:
        x = np.atleast_1d(np.asarray(x, float))
        idx = tuple(int(np.argmin(np.abs(ax.nodes - x[k])))
                    for k, ax in enumerate(plan.grid.axes))
        xg = np.array([plan.grid.axes[k].nodes[idx[k]]
                       for k in range(plan.grid.d)])
        row = _kernel_row(plan, m_band, xg)
        rhs = complex(np.sum(row * f.values * wts))
        lhs = complex(tmf.values[idx])
        rel = abs(lhs - rhs) / scale
        worst = max(worst, rel)
        rep.add(f"rel_err@x={xg.tolist()}", rel)
    rep.fitted_constants["max_relative_error"] = worst
    rep.verdict = PASS if worst <= tol else FAIL
    return rep


# ---------------------------------------------------------------------------
# the weighted transform bound

def global_sobolev_norm(n: Symbol, beta):
    """||n||_{W^beta_2(R^d)} for compactly supported n, via the windowless
    variant of the box-FFT Sobolev norm."""
    return local_sobolev_norm(
        n, 0, beta, eta=lambda u: np.ones(np.asarray(u).shape[:-1]))


def weighted_transform_bound_check(alpha, lemma):
    """Ratio LHS/RHS of the weighted transform bound over the oscillatory
    family n_k(u) = eta(u) e^{i k u_1}, k = 0 (the baseline), 1, 2, 4, ...,
    24, 32 = k_max, on grids of radius 4 k_max + 40 and 2.2.

    LHS = ||H(m_k) w^s||_{L^2(X)} with s = 1; RHS = ||n_k||_{W^beta_2} with
    beta = s + d/2 + epsilon (lemma "2.1") or beta = s + epsilon
    (lemma "2.2", which needs every alpha_k >= 1/2), epsilon = 1/2.  Passes
    when the ratio stays within band_factor times the baseline across the
    family.
    """
    alpha = alpha if isinstance(alpha, MultiIndex) else MultiIndex(tuple(np.atleast_1d(alpha)))
    d = alpha.d
    s, epsilon, band_factor = 1.0, 0.5, 10.0
    ks = (0, 1, 2, 4, 8, 16, 24, 32)
    if lemma == "2.1":
        beta = s + d / 2.0 + epsilon
    elif lemma == "2.2":
        if min(alpha.alpha) < 0.5:
            raise ValueError("the s + epsilon index needs alpha_k >= 1/2")
        beta = s + epsilon
    else:
        raise ValueError("lemma must be '2.1' or '2.2'")
    # 512 nodes give 8 points per wavelength at R * 2.2 = 370, 16 per k_max
    plan = TransformPlan.build(Grid.build(alpha, R=4.0 * ks[-1] + 40.0, n=512),
                               Grid.build(alpha, R=2.2, n=512))
    rep = EstimateReport(
        name="weighted_transform_bound",
        parameters={"alpha": list(alpha.alpha), "s": s, "epsilon": epsilon,
                    "lemma": lemma, "beta": beta, "k_max": ks[-1]},
        provenance="weighted L^2 bound for transforms of annulus symbols",
    )
    wspec = WeightSpec(s=s)
    ratios = {}
    for k in ks:
        n_k = bump_symbol(d) if k == 0 else oscillatory_symbol(d, k)
        mvals = _symbol_values(plan.dual_grid, n_k)
        hm = GridFunction(plan.grid, plan.inverse(mvals))
        lhs = norm(hm, 2.0, wspec)
        # drops the SpectralTailWarnings of the box-FFT norm: 8 per lemma,
        # with Nyquist tails of 1.2e-7 to 1.1e-5 of the norm
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SpectralTailWarning)
            rhs = global_sobolev_norm(n_k, beta)
        ratios[k] = lhs / rhs
        rep.add(f"ratio@k={k}", ratios[k])
    base = ratios[0]
    worst = max(ratios.values())
    rep.fitted_constants["baseline_ratio"] = base
    rep.fitted_constants["max_ratio"] = worst
    rep.fitted_constants["band"] = worst / base
    rep.verdict = PASS if worst <= band_factor * base else FAIL
    return rep


# ---------------------------------------------------------------------------
# the L^p probe's battery

def battery_functions(grid, factors):
    """The functions of verify.make_battery's factors on grid, one at a
    time: each the outer product of its axis factors."""
    for fs in zip(*factors):
        yield GridFunction(grid, product_values(fs))
