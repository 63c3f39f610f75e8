"""The multiplier operator T_m = H(m Hf), its dyadic slices, and the
runnable check behind the weighted-transform bound.

Symbols live on the squared frequency axes: m(lambda) = n(lambda_1^2, ...,
lambda_d^2), and the dyadic pieces slice m with the radial partition in the
squared variables, m_j(lambda) = psi(2^{-j} lambda^2) m(lambda).
"""

import warnings

import numpy as np

from .dyadic import DyadicPartition
from .grid import Grid, GridFunction, WeightSpec, norm
from .report import FAIL, PASS, EstimateReport
from .sobolev import SpectralTailWarning, local_sobolev_norm
from .specfun import MultiIndex
from .symbols import Symbol, bump_symbol, oscillatory_symbol
from .transform import TransformPlan
# bound here only so the benchmark tracer can rebind it in every module
from .transform import _contract  # noqa: F401


def _symbol_values(dual_grid, n: Symbol):
    """m(lambda) = n(lambda_1^2, ..., lambda_d^2) on the dual grid: the one
    place where a symbol is sampled for the multiplier functions."""
    return n(dual_grid.squared_mesh())


def apply_multiplier(plan: TransformPlan, mvals, f: GridFunction):
    """T_m f = H(m Hf), with mvals = m(lambda) on the dual grid."""
    if np.shape(mvals) != plan.dual_grid.shape:
        raise ValueError("multiplier array does not match the dual grid")
    spec = plan.forward(f.values)
    return GridFunction(plan.grid, plan.inverse(mvals * spec))


def dyadic_symbol_values(dual_grid: Grid, mvals, psi: DyadicPartition, j):
    """m_j(lambda) = psi_j(lambda_1^2, ..., lambda_d^2) m(lambda) on the
    dual grid, from m's values mvals there, with psi_j = psi.piece(j, .)
    the j-th term of the partition.  Every dyadic slice is sampled here."""
    return psi.piece(j, dual_grid.squared_mesh()) * mvals


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
