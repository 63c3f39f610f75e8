"""Transform plans: isometry, inversion, translation, convolution, decay."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankellab.grid import Grid, GridFunction, integrate, norm, product_values
from hankellab.specfun import MultiIndex
from hankellab.transform import (AliasingWarning, ResolutionWarning,
                                 TransformPlan, convolve, hankel_transform,
                                 _contract, _tail_ratios, inverse_hankel,
                                 translate)

from conftest import gaussian_bump
from paper_checks import (bessel_operator_fd, dilate, dilation_identity_check,
                          off_diagonal_decay_check, young_inequality_residual)


class TestGaussianPair:
    @pytest.mark.parametrize("alpha_k", [0.0, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_transform_of_spectral_gaussian(self, alpha_k, t):
        # H(e^{-t lambda^2})(x) = (2t)^{-(2a+1)/2} e^{-x^2/4t}, the derived
        # closed form fixing the transform's normalization
        grid = Grid.build(MultiIndex((alpha_k,)), R=14.0, n=1024)
        plan = TransformPlan.build(grid)
        lam = grid.axes[0].nodes
        g = GridFunction(grid, np.exp(-t * lam**2))
        got = inverse_hankel(plan, g)
        want = grid.sample(
            lambda x: (2.0 * t) ** (-(2 * alpha_k + 1) / 2.0)
            * np.exp(-(x**2) / (4.0 * t)))
        err = norm(got - want, 2.0) / norm(want, 2.0)
        assert err <= 1e-9


class TestPlancherelInversion:
    def test_battery_1d(self, plan_half):
        rng = np.random.default_rng(7)
        for _ in range(8):
            c = rng.uniform(5.0, 8.0)
            w = rng.uniform(0.8, 1.2)
            f = gaussian_bump(plan_half.grid, c, w)
            g = hankel_transform(plan_half, f)
            assert norm(g, 2.0) / norm(f, 2.0) == pytest.approx(1.0, abs=1e-8)
            back = inverse_hankel(plan_half, g)
            assert norm(back - f, 2.0) / norm(f, 2.0) <= 1e-8

    def test_battery_2d(self, plan_2d):
        f = gaussian_bump(plan_2d.grid, [4.0, 5.0], 0.8)
        g = hankel_transform(plan_2d, f)
        assert norm(g, 2.0) / norm(f, 2.0) == pytest.approx(1.0, abs=1e-6)
        back = inverse_hankel(plan_2d, g)
        assert norm(back - f, 2.0) / norm(f, 2.0) <= 1e-6

    def test_grid_mismatch_rejected(self, plan_half):
        other = Grid.build(MultiIndex((0.5,)), R=8.0, n=256)
        f = other.sample(lambda x: np.exp(-(x**2)))
        with pytest.raises(ValueError):
            hankel_transform(plan_half, f)


class TestDiagonalization:
    def test_operator_via_spectrum_matches_finite_differences(self, plan_half):
        # H(lambda^2 Hf) equals L f; the FD application is the oracle
        grid = plan_half.grid
        f = gaussian_bump(grid, 4.0, 1.5)
        spec = hankel_transform(plan_half, f)
        lam = plan_half.dual_grid.axes[0].nodes
        Lf = inverse_hankel(
            plan_half, GridFunction(plan_half.dual_grid, lam**2 * spec.values))
        x = grid.axes[0].nodes
        want = bessel_operator_fd(0.5, f.values.real, x)
        sel = (x[1:-1] > 0.5) & (x[1:-1] < 10.0)
        scale = np.max(np.abs(want[sel]))
        # second-order stencils on the non-uniform composite nodes
        err = np.max(np.abs(Lf.values.real[1:-1][sel] - want[sel])) / scale
        assert err < 5e-3


class TestTranslation:
    def test_support_mass_positivity(self, plan_half):
        # f lives on [1, 7] up to 1e-6 of its peak; by the product formula
        # tau^y f(x) needs [|x - y|, x + y] to meet [1, 7]
        grid = plan_half.grid
        f = grid.sample(lambda x: np.exp(-2.0 * (x - 4.0) ** 2))
        g = translate(plan_half, f, [2.0])
        gv = np.real(g.values)
        fmax = float(np.max(np.abs(f.values)))
        x = grid.axes[0].nodes
        outside = (np.abs(x - 2.0) > 7.0) | (x + 2.0 < 1.0)
        assert outside.any()
        assert np.max(np.abs(gv[outside])) <= 1e-6 * fmax
        assert -np.min(gv) <= 1e-6 * fmax
        mass_in, mass_out = np.real(integrate(f)), np.real(integrate(g))
        assert abs(mass_out - mass_in) <= 1e-6 * abs(mass_in)

    def test_translate_at_small_y_is_near_identity(self, plan_half):
        f = gaussian_bump(plan_half.grid, 4.0, 1.5)
        g = translate(plan_half, f, [1e-4])
        assert norm(g - f, np.inf) < 1e-4 * norm(f, np.inf) * 10

    def test_rejects_bad_y(self, plan_half):
        f = gaussian_bump(plan_half.grid, 4.0, 1.5)
        with pytest.raises(ValueError):
            translate(plan_half, f, [-1.0])

    def test_aliasing_warns_for_sharp_spike(self, plan_half):
        f = gaussian_bump(plan_half.grid, 4.0, 0.05)
        with pytest.warns(AliasingWarning):
            translate(plan_half, f, [1.0])


class TestConvolution:
    def test_convolution_theorem_residual(self, plan_half):
        f = gaussian_bump(plan_half.grid, 3.0, 1.2)
        g = gaussian_bump(plan_half.grid, 2.0, 1.5)
        with pytest.warns(AliasingWarning, match="convolve"):
            h = convolve(plan_half, f, g)
        lhs = hankel_transform(plan_half, h)
        rhs = hankel_transform(plan_half, f) * hankel_transform(plan_half, g)
        assert norm(lhs - rhs, 2.0) / norm(rhs, 2.0) <= 1e-8

    def test_young_inequality(self, plan_half):
        f = gaussian_bump(plan_half.grid, 3.0, 1.2)
        g = gaussian_bump(plan_half.grid, 2.0, 1.5)
        with pytest.warns(AliasingWarning, match="convolve"):
            r = young_inequality_residual(plan_half, f, g)
        assert r <= 1.0 + 1e-8


class TestDilationIdentities:
    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_transform_dilation_covariance(self, plan_half, t):
        # H(f_t)(x) = Hf(x / t) within interpolation tolerance
        f = gaussian_bump(plan_half.grid, 4.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lhs = hankel_transform(plan_half, dilate(f, t))
        from scipy.interpolate import CubicSpline

        spec = hankel_transform(plan_half, f)
        lam = plan_half.dual_grid.axes[0].nodes
        interp = CubicSpline(lam, spec.values.real)(lam / t)
        sel = lam / t <= lam[-1]
        err = np.max(np.abs(lhs.values.real[sel] - interp[sel]))
        assert err <= 1e-4 * np.max(np.abs(spec.values))

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_translation_dilation_commutation(self, plan_half, t):
        f = gaussian_bump(plan_half.grid, 3.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = dilation_identity_check(plan_half, f, t, [1.5])
        assert rep.verdict == "pass"


class TestSpectralDiagnostics:
    def test_tail_fraction_small_for_smooth(self, plan_half):
        f = gaussian_bump(plan_half.grid, 8.0, 1.5)
        spec = plan_half.forward(f.values)
        assert max(_tail_ratios(plan_half, spec)) < 1e-10

    def test_tail_fraction_large_for_spike(self, plan_half):
        f = gaussian_bump(plan_half.grid, 4.0, 0.05)
        spec = plan_half.forward(f.values)
        assert max(_tail_ratios(plan_half, spec)) > 1e-4

    def test_resolution_warning_on_coarse_plan(self):
        with pytest.warns(ResolutionWarning):
            grid = Grid.build(MultiIndex((0.5,)), R=64.0, n=64)
            TransformPlan.build(grid)


class TestOffDiagonalDecay:
    def test_gaussian_profile_decays(self, plan_half):
        f = gaussian_bump(plan_half.grid, 1.0, 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = off_diagonal_decay_check(
                plan_half, f, delta=0.5, y=[2.0],
                r_values=np.geomspace(1.0, 4.0, 4),
                t_values=np.geomspace(0.5, 2.0, 4))
        assert rep.verdict == "pass"
        assert rep.fitted_constants["slope"] <= -0.4


class TestContract:
    @staticmethod
    def _upcast_contract(mats, values):
        out = values
        for k, M in enumerate(mats):
            out = np.moveaxis(np.tensordot(M.astype(complex), out,
                                           axes=([1], [k])), 0, k)
        return out

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_complex_values_real_matrices(self, d, batch):
        rng = np.random.default_rng(d)
        cols = (7, 6, 5)[:d]
        mats = [rng.standard_normal((c + 2, c)) for c in cols]
        shape = cols + batch
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = _contract(mats, values)
        want = self._upcast_contract(mats, values)
        assert got.shape == tuple(c + 2 for c in cols) + batch
        assert got.dtype == complex
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # real input stays real
        real = _contract(mats, values.real)
        assert real.dtype == float
        assert np.max(np.abs(real - want.real)) <= 1e-13 * np.max(np.abs(want))

    def test_complex_matrices_are_applied_as_given(self):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))]
        values = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.allclose(_contract(mats, values), mats[0] @ values,
                           rtol=1e-13, atol=0)


def _split_contract(mats, values):
    """Complex values against real matrices, the real and imaginary parts
    contracted on their own and assembled."""
    re = _contract(mats, values.real)
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = _contract(mats, values.imag)
    return out


@given(d=st.integers(1, 3), data=st.data(),
       layout=st.sampled_from(["contiguous", "transposed", "strided"]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_complex_contraction_matches_the_split_route(d, data, layout, seed):
    # the interleaved float view against contracting .real and .imag on
    # their own, over batch axes and inputs that are not C-contiguous
    cols = data.draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    rows = data.draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    batch = data.draw(st.lists(st.integers(1, 3), max_size=2))
    shape = tuple(cols + batch)
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((r, c)) for r, c in zip(rows, cols)]

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if layout == "contiguous":
        values = draw(shape)
    elif layout == "transposed":
        values = draw(shape[::-1]).T
    else:
        values = draw(tuple(2 * n for n in shape))[(slice(None, None, 2),)
                                                   * len(shape)]
    got = _contract(mats, values)
    want = _split_contract(mats, values)
    assert got.shape == tuple(rows + batch) and got.dtype == complex
    # the two routes sum the same products in BLAS orders of their own, so
    # the scale is that of the terms, |M| contracted against |Re| + |Im|:
    # a single 5-term dot product that cancels to 0.03 of its terms
    # differs by 1.1e-15 of its own size
    scale = _contract([np.abs(M) for M in mats],
                      np.abs(values.real) + np.abs(values.imag))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(scale)


class TestRestrictedPlans:
    """A plan on Grid.restrict subsets gives the matching entries of the
    full plan's transforms for functions that vanish off the kept nodes."""

    @staticmethod
    def _restricted(plan, keep, keep_dual):
        return TransformPlan.build(plan.grid.restrict(keep),
                                   plan.dual_grid.restrict(keep_dual))

    @pytest.mark.parametrize("plan_name", ["plan_half", "plan_2d"])
    def test_forward_and_inverse_match_the_full_plan(self, plan_name,
                                                     request):
        plan = request.getfixturevalue(plan_name)
        rng = np.random.default_rng(11)
        keep = [rng.random(ax.n) < 0.4 for ax in plan.grid.axes]
        keep_dual = [rng.random(ax.n) < 0.6 for ax in plan.dual_grid.axes]
        sub = self._restricted(plan, keep, keep_dual)
        ix, ixd = np.ix_(*keep), np.ix_(*keep_dual)

        f = np.zeros(plan.grid.shape)
        f[ix] = gaussian_bump(plan.grid, 3.0, 1.0).values[ix]
        want = plan.forward(f)[ixd]
        got = sub.forward(f[ix])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

        g = np.zeros(plan.dual_grid.shape, dtype=complex)
        lam2 = plan.dual_grid.squared_mesh().sum(axis=-1)
        g[ixd] = (np.exp(-0.3 * lam2) * np.exp(1j * lam2))[ixd]
        want = plan.inverse(g)[ix]
        got = sub.inverse(g[ixd])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_restricted_plan_is_judged_by_its_full_axes(self, plan_half):
        # the 768-node R = Lambda = 16 axis has ~18.8 points per wavelength;
        # its 155 nodes x > 12 alone would read ~3.8
        keep = plan_half.grid.axes[0].nodes > 12.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._restricted(plan_half, [keep], [np.ones(768, dtype=bool)])
        assert np.count_nonzero(keep) < 4.0 * 16.0**2 / (2.0 * np.pi)
        assert not caught, [str(w.message) for w in caught]

    def test_unrestricted_grid_under_the_rule_still_warns(self, plan_half):
        # as many nodes as the kept subset above, on a full axis of its own
        keep = plan_half.grid.axes[0].nodes > 12.0
        grid = Grid.build(MultiIndex((0.5,)), R=16.0,
                          n=int(np.count_nonzero(keep)))
        with pytest.warns(ResolutionWarning):
            TransformPlan.build(grid)
        # and a restricted plan whose full axes are too coarse warns too
        coarse = Grid.build(MultiIndex((0.5,)), R=64.0, n=64)
        with pytest.warns(ResolutionWarning):
            TransformPlan.build(coarse.restrict([coarse.axes[0].nodes > 8.0]),
                                coarse)

    @pytest.mark.parametrize("plan_name", ["plan_half", "plan_2d"])
    def test_empty_selection_gives_zeros(self, plan_name, request):
        plan = request.getfixturevalue(plan_name)
        none = [np.zeros(ax.n, dtype=bool) for ax in plan.grid.axes]
        every = [np.ones(ax.n, dtype=bool) for ax in plan.grid.axes]
        sub = self._restricted(plan, none, every)
        spec = sub.forward(np.zeros(sub.grid.shape))
        assert spec.shape == plan.dual_grid.shape and not spec.any()
        sub = self._restricted(plan, every, none)
        back = sub.inverse(np.zeros(sub.dual_grid.shape))
        assert back.shape == plan.grid.shape and not back.any()


class TestPlanStorage:
    @staticmethod
    def _small_plan(d):
        # 40 and 32 of the 160 nodes of each axis, as d = 3 batches of
        # full axes would be slow
        alpha = MultiIndex((0.5, 1.0, 0.0)[:d])
        grid = Grid.build(alpha, R=6.0, n=16).restrict(
            [np.arange(0, 160, 4)] * d)
        dual = Grid.build(alpha, R=4.0, n=16).restrict(
            [np.arange(0, 160, 5)] * d)
        return TransformPlan.build(grid, dual)

    @pytest.mark.parametrize("d", [1, 2])
    def test_inverse_is_a_view_of_the_forward_kernel(self, d):
        plan = self._small_plan(d)
        assert len(plan.fwd) == len(plan.inv) == d
        for k in range(d):
            assert plan.fwd[k].shape == (plan.dual_grid.shape[k],
                                         plan.grid.shape[k])
            assert np.shares_memory(plan.inv[k], plan.fwd[k])
            assert np.array_equal(plan.inv[k], plan.fwd[k].T)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_forward_and_inverse_match_weighted_matrices(self, d, batch,
                                                         kind):
        # the weights folded into per-axis matrices, E w and E^T w_dual,
        # contracted with the complex upcast of TestContract
        plan = self._small_plan(d)
        fwd_w = [E * ax.quad_weights[None, :]
                 for E, ax in zip(plan.fwd, plan.grid.axes)]
        inv_w = [E.T * dax.quad_weights[None, :]
                 for E, dax in zip(plan.fwd, plan.dual_grid.axes)]
        rng = np.random.default_rng(d)
        for shape, method, mats in ((plan.grid.shape, plan.forward, fwd_w),
                                    (plan.dual_grid.shape, plan.inverse,
                                     inv_w)):
            values = rng.standard_normal(shape + batch)
            if kind == "complex":
                values = values + 1j * rng.standard_normal(shape + batch)
            got = method(values)
            want = TestContract._upcast_contract(mats, values)
            assert got.shape == want.shape
            assert (got.dtype == complex) == (kind == "complex")
            assert np.max(np.abs(got - want)) <= \
                1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_factors_go_through_as_the_product_function(self, d, batch):
        # the transform of a product is the product of the factors'
        # one-axis transforms, each batch column its own product
        plan = self._small_plan(d)
        rng = np.random.default_rng(7 + d)
        for grid, method, dense in ((plan.grid, plan.forward_factors,
                                     plan.forward),
                                    (plan.dual_grid, plan.inverse_factors,
                                     plan.inverse)):
            factors = [rng.standard_normal((ax.n,) + batch)
                       + 1j * rng.standard_normal((ax.n,) + batch)
                       for ax in grid.axes]
            got = method(factors)
            assert [F.shape[1:] for F in got] == [batch] * d
            for col in np.ndindex(batch):
                one = [F[(slice(None),) + col] for F in factors]
                want = dense(product_values(one))
                have = product_values([F[(slice(None),) + col]
                                       for F in got])
                assert np.max(np.abs(have - want)) <= \
                    1e-13 * np.max(np.abs(want))
        with pytest.raises(ValueError, match="one factor per axis"):
            plan.forward_factors([np.ones(plan.grid.shape[0])] * (d + 1))


@given(c=st.floats(5.0, 8.0), w=st.floats(0.8, 1.5))
@settings(max_examples=15, deadline=None)
def test_plancherel_property(plan_half, c, w):
    f = gaussian_bump(plan_half.grid, c, w)
    g = hankel_transform(plan_half, f)
    assert norm(g, 2.0) == pytest.approx(norm(f, 2.0), rel=1e-7)
