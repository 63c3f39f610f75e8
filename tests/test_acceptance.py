"""Acceptance suite: the eleven top-level criteria, one pass/fail line each.

Run with `pytest -v` (criterion verdicts appear as test outcomes) or with
`-s` to see the explicit per-criterion lines.
"""

import warnings

import numpy as np
import pytest

from hankellab.grid import Grid, GridFunction, norm
from hankellab.heat import (HeatKernelEval, gaussian_bound_check, heat_apply,
                            heat_kernel)
from hankellab.sobolev import hormander_sup
from hankellab.specfun import MultiIndex
from hankellab.symbols import (divergent_symbol, laplace_type_symbol,
                               parse_symbol)
from hankellab.transform import (TransformPlan, convolve, hankel_transform,
                                 inverse_hankel)
from hankellab.verify import cz_hormander_check, h1_atom_check

from conftest import gaussian_bump
from paper_checks import (association_check, bessel_operator_fd,
                          dilation_identity_check, heat_lipschitz_check,
                          off_diagonal_decay_check,
                          weighted_transform_bound_check,
                          young_inequality_residual)


def report(num, label, ok):
    line = f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def plan_1024():
    grid = Grid.build(MultiIndex((0.5,)), R=24.0, n=1024)
    return TransformPlan.build(grid)


@pytest.fixture(scope="module")
def hk_half():
    return HeatKernelEval(MultiIndex((0.5,)))


def test_criterion_01_transform_exactness():
    # H(e^{-t lambda^2}) against the closed form (2t)^{-(2a+1)/2} e^{-x^2/4t}
    worst = 0.0
    for a in (0.0, 0.5, 1.0, 1.5):
        grid = Grid.build(MultiIndex((a,)), R=14.0, n=2048)
        plan = TransformPlan.build(grid)
        lam = grid.axes[0].nodes
        for t in (0.5, 1.0, 2.0):
            got = inverse_hankel(plan, GridFunction(grid, np.exp(-t * lam**2)))
            want = grid.sample(lambda x: (2 * t) ** (-(2 * a + 1) / 2.0)
                               * np.exp(-(x**2) / (4 * t)))
            worst = max(worst, norm(got - want, 2.0) / norm(want, 2.0))
    report(1, f"transform exactness (max rel err {worst:.2e})", worst <= 1e-7)


def test_criterion_02_plancherel_inversion(plan_1024, plan_2d):
    rng = np.random.default_rng(202)
    worst = 0.0
    for plan, lo, hi in ((plan_1024, 6.0, 10.0), (plan_2d, 4.0, 6.0)):
        for _ in range(8):  # 8 per dimension = 16-function battery
            c = rng.uniform(lo, hi, plan.grid.d)
            w = rng.uniform(0.8, 1.2)
            f = gaussian_bump(plan.grid, c, w)
            g = hankel_transform(plan, f)
            worst = max(worst, abs(norm(g, 2.0) / norm(f, 2.0) - 1.0))
            back = inverse_hankel(plan, g)
            worst = max(worst, norm(back - f, 2.0) / norm(f, 2.0))
    report(2, f"Plancherel + self-inversion (max dev {worst:.2e})",
           worst <= 1e-6)


def test_criterion_03_identity_suite(plan_1024):
    plan = plan_1024
    f = gaussian_bump(plan.grid, 6.0, 1.0)
    g = gaussian_bump(plan.grid, 4.0, 1.2)
    ok = True
    # diagonalization against finite differences (interpolation-free: 5e-3
    # is the FD-stencil floor on the composite nodes, well inside O(h^2))
    spec = hankel_transform(plan, f)
    lam = plan.dual_grid.axes[0].nodes
    Lf = inverse_hankel(plan, GridFunction(plan.dual_grid,
                                           lam**2 * spec.values))
    x = plan.grid.axes[0].nodes
    want = bessel_operator_fd(0.5, f.values.real, x)
    sel = (x[1:-1] > 1.0) & (x[1:-1] < 14.0)
    diag = np.max(np.abs(Lf.values.real[1:-1][sel] - want[sel]))
    ok &= diag <= 5e-3 * np.max(np.abs(want[sel]))
    # convolution theorem (no interpolation): 1e-8
    h = convolve(plan, f, g)
    lhs = hankel_transform(plan, h)
    rhs = hankel_transform(plan, f) * hankel_transform(plan, g)
    ok &= norm(lhs - rhs, 2.0) / norm(rhs, 2.0) <= 1e-8
    # Young inequality: 1e-8
    ok &= young_inequality_residual(plan, f, g) <= 1.0 + 1e-8
    # dilation/translation identities (interpolation enters): 1e-5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in (0.5, 2.0):
            rep = dilation_identity_check(plan, f, t, [1.5])
            ok &= rep.verdict == "pass"
    report(3, "identity suite (diagonalization/convolution/Young/dilation)",
           ok)


def test_criterion_04_heat_kernel(hk_half, plan_1024):
    ok = True
    grid = Grid.build(MultiIndex((0.5,)), R=30.0, n=1024)
    xw = grid.axes[0]
    # mass-1 at 6 sample centers
    for y in (0.2, 0.7, 1.3, 2.5, 4.0, 6.5):
        mass = float(np.sum(heat_kernel(hk_half, 1.0, xw.nodes[:, None],
                                        np.array([y])) * xw.quad_weights))
        ok &= abs(mass - 1.0) <= 1e-6
    # closed form vs spectral on compacts
    f = gaussian_bump(plan_1024.grid, 6.0, 1.0)
    spec = hankel_transform(plan_1024, f)
    lam = plan_1024.dual_grid.axes[0].nodes
    x = plan_1024.grid.axes[0].nodes
    for t in (0.25, 1.0):
        kern = heat_apply(hk_half, t, f).values
        spect = inverse_hankel(plan_1024, GridFunction(
            plan_1024.dual_grid, np.exp(-t * lam**2) * spec.values)).values
        ok &= np.max(np.abs((kern - spect)[x < 24.0 - 6 * np.sqrt(t)])) <= 1e-6
    # semigroup composition
    one = heat_apply(hk_half, 1.5, f)
    two = heat_apply(hk_half, 1.0, heat_apply(hk_half, 0.5, f))
    ok &= norm(one - two, np.inf) <= 1e-6 * norm(one, np.inf)
    # two-regime asymptotic bands, ratio <= 10
    rng = np.random.default_rng(44)
    samples = [(float(np.exp(rng.uniform(-2, 2))), rng.uniform(0.3, 5.0, 1),
                rng.uniform(0.3, 5.0, 1)) for _ in range(80)]
    rep = gaussian_bound_check(hk_half, samples)
    ok &= rep.verdict == "pass"
    report(4, "heat kernel (mass, routes, semigroup, regime bands)", ok)


def test_criterion_05_off_diagonal_decay(plan_1024):
    f = gaussian_bump(plan_1024.grid, 1.0, 0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = off_diagonal_decay_check(
            plan_1024, f, delta=0.5, y=[2.0],
            r_values=np.geomspace(1.0, 6.0, 6),
            t_values=np.geomspace(0.5, 2.0, 6))
    report(5, f"off-diagonal tail decay (slope {rep.fitted_constants['slope']:.3f})",
           rep.verdict == "pass")


def test_criterion_06_heat_lipschitz(hk_half):
    grid = Grid.build(MultiIndex((0.5,)), R=24.0, n=512)
    pairs = [([2.0], [2.0 + s]) for s in np.geomspace(1e-1, 1e-4, 7)]
    rep = heat_lipschitz_check(hk_half, grid, pairs)
    report(6, f"heat kernel L1-Lipschitz (band {rep.fitted_constants['band_ratio']:.3f})",
           rep.verdict == "pass")


def test_criterion_07_weighted_transform_bounds():
    ok = True
    bands = {}
    for lemma in ("2.1", "2.2"):
        rep = weighted_transform_bound_check(0.5, lemma)
        bands[lemma] = rep.fitted_constants["band"]
        ok &= rep.verdict == "pass"
    report(7, "weighted transform bounds "
              f"(bands {bands['2.1']:.3f} / {bands['2.2']:.3f})", ok)


def test_criterion_08_hormander_profiles():
    Q = 2.0  # homogeneous dimension at alpha = 1/2, d = 1
    ok = True
    symbols = [laplace_type_symbol(1, "const"),
               laplace_type_symbol(1, "imag_power", gamma=1.0),
               laplace_type_symbol(1, "imag_power", gamma=2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in symbols:
            for beta in (1.0, Q / 2 + 0.1, 4.0):
                prof = hormander_sup(n, beta, (-10, 10))
                ok &= prof.flatness() <= 1.5
        div = hormander_sup(divergent_symbol(1), 1.0, (-10, 10))
    vals = [div.norms[j] for j in sorted(div.norms)]
    ok &= max(vals) >= 10.0 * min(vals)
    report(8, "Hoermander profiles flat; negative control grows", ok)


def test_criterion_09_cz_condition_and_association(plan_1024):
    m = laplace_type_symbol(1, "imag_power", gamma=1.0)
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        rep = cz_hormander_check(MultiIndex((0.5,)), m)
        f = gaussian_bump(plan_1024.grid, 3.0, 0.5)
        assoc = association_check(plan_1024, m, f,
                                  x_samples=[[8.0], [12.0], [16.0]])
    assert not escaped, [str(w.message) for w in escaped]
    ok = rep.verdict == "pass" and assoc.verdict == "pass"
    report(9, "CZ difference-integral flat over 3 decades; kernel associated "
              f"(band {rep.fitted_constants['band_ratio']:.3f}, "
              f"assoc {assoc.fitted_constants['max_relative_error']:.1e})", ok)


def test_criterion_10_h1_atom_bound():
    ok = True
    stats = {}
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        for label, spec_str in (("imag", "laplace_type{phi=imag_power:gamma=1.0}"),
                                ("heat", "heat{t=1e-06}")):
            m = parse_symbol(spec_str, 1)
            rep = h1_atom_check(MultiIndex((0.5,)), m)
            stats[label] = rep.fitted_constants["band_ratio"]
            ok &= rep.verdict == "pass"
    assert not escaped, [str(w.message) for w in escaped]
    report(10, "H1 atom maximal bound flat in radius "
               f"(bands {stats['imag']:.3f} / {stats['heat']:.3f})", ok)


def test_criterion_11_negative_controls():
    div = divergent_symbol(1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the profile's Nyquist tails
        prof = hormander_sup(div, 1.0, (-10, 10))
    flat_fails = prof.flatness() > 1.5
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        rep = cz_hormander_check(MultiIndex((0.5,)), div)
    assert not escaped, [str(w.message) for w in escaped]
    cz_fails = rep.verdict == "fail"
    report(11, "negative controls are detected "
               f"(profile ratio {prof.flatness():.1e}, "
               f"CZ band {rep.fitted_constants['band_ratio']:.1e})",
           flat_fails and cz_fails)
