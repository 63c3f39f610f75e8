"""Quadrature grids, restriction, weighted norms, ball measures and dilation."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankellab.grid import (GRADED_PANELS, MAX_WEIGHT_RATE, POINTS_PER_PANEL,
                            AxisGrid, Grid, GridFunction, WeightSpec,
                            _gaussian_moment, _jacgauss, axis_size,
                            axis_rule, ball_measure, check_weight_resolved,
                            integrate, norm, uniform_panels)
from hankellab.specfun import MultiIndex

from paper_checks import MassDeficitWarning, dilate

mpmath.mp.dps = 30

class TestAxisGrid:
    @pytest.mark.parametrize("a", [-0.49, -0.25, 0.0, 0.5, 1.0, 2.5])
    def test_monomial_moments(self, a):
        # int_0^R x^p x^{2a} dx = R^{p+2a+1}/(p+2a+1), exact closed form
        ax = AxisGrid.build(a, R=5.0, n=256)
        for p in (0, 1, 2, 3, 7):
            got = float(np.sum(ax.nodes**p * ax.quad_weights))
            want = 5.0 ** (p + 2 * a + 1) / (p + 2 * a + 1)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("a", [-0.45, 0.0, 1.5])
    def test_gaussian_moment_oracle(self, a):
        # int_0^R e^{-x^2} x^{2a} dx = gammainc(a+1/2, 0, R^2) / 2 via mpmath
        ax = AxisGrid.build(a, R=8.0, n=384)
        got = float(np.sum(np.exp(-ax.nodes**2) * ax.quad_weights))
        want = float(0.5 * mpmath.gammainc(a + 0.5, 0, 64))
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("b", [0.02, 1.0, 13.0, 43.0])
    def test_selftest_moment_against_mpmath(self, b):
        # the self-test's exact value, gammainc(b, 0, 64) / 2, b = a + 1/2
        want = float(0.5 * mpmath.gammainc(b, 0, 64))
        assert _gaussian_moment(b - 0.5) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("b", [-0.98, 0.0, 1.0, 2.6, 72.0])
    def test_gauss_jacobi_rule_against_mpmath(self, b):
        # the nodes are the zeros of the Jacobi polynomial P_16^(0,b), and
        # the weights 2^(b+1) / ((1 - t^2) P_16'(t)^2) (DLMF 18.2.1, 3.5.v)
        nodes, weights = _jacgauss(16, b)
        mb = mpmath.mpf(b)
        for t, w in zip(nodes, weights):
            root = mpmath.findroot(lambda x: mpmath.jacobi(16, 0, mb, x),
                                   mpmath.mpf(t))
            slope = (17 + mb) / 2 * mpmath.jacobi(15, 1, mb + 1, root)
            assert abs(t - float(root)) <= 2e-15
            assert w == pytest.approx(
                float(2 ** (mb + 1) / ((1 - root**2) * slope**2)), rel=2e-13)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AxisGrid.build(0.5, R=-1.0, n=128)
        with pytest.raises(ValueError):
            AxisGrid.build(0.5, R=1.0, n=4)

    def test_nodes_immutable(self):
        ax = AxisGrid.build(0.5, R=2.0, n=64)
        with pytest.raises(ValueError):
            ax.nodes[0] = 1.0

    @pytest.mark.parametrize("n", [16, 40, 96, 100, 161, 600, 1000, 1024])
    def test_axis_size_is_the_built_node_count(self, n):
        ax = AxisGrid.build(0.5, R=40.0, n=n)
        assert axis_size(n) == ax.n
        assert axis_size(16) == 160

    @pytest.mark.parametrize("uniform", [1, 2, 3, 7, 16])
    def test_weight_rule_admits_only_axes_that_pass_the_self_test(self,
                                                                  uniform):
        # 1, 2, 3, 7 and 16 uniform panels; R = 2.83 keeps R^(2a+1) and
        # (R/8)^(2a+1) normal floats up to a = 340
        n = (uniform + 9) * 16
        h = 0.5 if uniform == 1 else 1.0 / uniform  # last panel width / R
        at_rule = MAX_WEIGHT_RATE / (2.0 * h)
        check_weight_resolved((0.5, at_rule), n, "at the rule")
        AxisGrid.build(at_rule, R=2.83, n=n)
        past = 41.0 / (2.0 * h)
        with pytest.raises(ValueError, match=f"n = {n}"):
            check_weight_resolved((0.5, past), n, f"n = {n}")
        with pytest.raises(RuntimeError, match="self-test failed"):
            AxisGrid.build(past, R=2.83, n=n)

    @given(a=st.floats(-0.45, 3.0), R=st.floats(0.5, 50.0))
    @settings(max_examples=25, deadline=None)
    def test_total_mass_property(self, a, R):
        ax = AxisGrid.build(a, R=R, n=160)
        want = R ** (2 * a + 1) / (2 * a + 1)
        assert float(ax.quad_weights.sum()) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("alpha_k,R,n", [(0.5, 12.001, 64), (-0.3, 24.0, 1024),
                                         (1.3, 1e-3, 300), (20.0, 7.0, 16)])
def test_axis_rule_is_the_built_axis(alpha_k, R, n):
    nodes, weights = axis_rule(alpha_k, R, n)
    ax = AxisGrid.build(alpha_k, R, n)
    assert np.array_equal(nodes, ax.nodes)
    assert np.array_equal(weights, ax.quad_weights)


@pytest.mark.parametrize("n", [16, 64, 160, 161, 1024, 3000])
def test_uniform_panels_are_the_built_axis_panels(n):
    # past the Gauss-Jacobi panel and the graded ones, the axis has
    # uniform_panels(n) panels of width R / uniform_panels(n), the first
    # of them the one the graded panels cut up
    R = 6.0
    ax = AxisGrid.build(0.5, R, n)
    U = uniform_panels(n)
    assert U >= 1
    assert ax.n == POINTS_PER_PANEL * (U + GRADED_PANELS)
    tail = ax.nodes[POINTS_PER_PANEL * (GRADED_PANELS + 1):]
    if U > 1:
        np.testing.assert_allclose(tail.reshape(U - 1, -1).mean(axis=1),
                                   R / U * (np.arange(1, U) + 0.5),
                                   rtol=1e-12)


class TestGrid:
    def test_tensor_weights_product(self):
        g = Grid.build(MultiIndex((0.0, 1.0)), R=3.0, n=64)
        w = g.weight_tensor()
        assert w.shape == g.shape
        assert float(w.sum()) == pytest.approx(
            (3.0 / 1.0) * (3.0**3 / 3.0), rel=1e-10)

    def test_separable_integral_2d(self):
        g = Grid.build(MultiIndex((0.5, 0.5)), R=6.0, n=128)
        f = g.sample(lambda x, y: np.exp(-(x**2) - y**2))
        one_d = float(mpmath.quad(lambda x: mpmath.exp(-x * x) * x, [0, 6]))
        assert complex(integrate(f)).real == pytest.approx(one_d**2, rel=1e-10)

    def test_restrict_keeps_nodes_weights_and_axis_data(self):
        g = Grid.build(MultiIndex((0.5, 1.0)), R=6.0, n=64)
        keep = [g.axes[0].nodes > 2.0, np.arange(0, g.shape[1], 3)]
        sub = g.restrict(keep)
        assert sub.alpha == g.alpha
        for ax, k, sax in zip(g.axes, keep, sub.axes):
            assert np.array_equal(sax.nodes, ax.nodes[k])
            assert np.array_equal(sax.quad_weights, ax.quad_weights[k])
            assert (sax.R, sax.alpha_k) == (ax.R, ax.alpha_k)
        # a quadrature rule for functions that vanish off the kept nodes
        f = g.sample(lambda x, y: np.exp(-x - y)).values
        mask = np.zeros(g.shape, dtype=bool)
        mask[np.ix_(*keep)] = True
        full = integrate(GridFunction(g, np.where(mask, f, 0.0)))
        assert integrate(GridFunction(sub, f[np.ix_(*keep)])) == \
            pytest.approx(full, rel=1e-14)
        with pytest.raises(ValueError):
            g.restrict(keep[:1])


class TestNorms:
    def test_lp_norms_of_indicatorlike(self):
        g = Grid.build(MultiIndex((0.5,)), R=4.0, n=256)
        f = g.sample(lambda x: np.ones_like(x))
        nu_total = 4.0**2 / 2.0
        assert norm(f, 1.0) == pytest.approx(nu_total, rel=1e-12)
        assert norm(f, 2.0) == pytest.approx(np.sqrt(nu_total), rel=1e-12)
        assert norm(f, np.inf) == pytest.approx(1.0)

    def test_weighted_norm_closed_form(self):
        # ||1 * (1+x)^s||_{L^1(x dx)} on (0,R] for s = 1
        g = Grid.build(MultiIndex((0.5,)), R=2.0, n=256)
        f = g.sample(lambda x: np.ones_like(x))
        want = float(mpmath.quad(lambda x: (1 + x) * x, [0, 2]))
        assert norm(f, 1.0, WeightSpec(s=1.0)) == pytest.approx(want, rel=1e-12)
        assert norm(f, 1.0, WeightSpec(delta=1.0)) == pytest.approx(
            want, rel=1e-12)

    @pytest.mark.parametrize("p", [1e4, 1e6])
    def test_large_p_norm_does_not_underflow(self, p):
        # 0.5^p underflows to 0 from p of about 1075; relative to the
        # largest |f| the norm is 0.5 (sum of the weights)^(1/p)
        g = Grid.build(MultiIndex((0.5, 1.3)), R=4.0, n=64)
        f = g.sample(lambda x, y: np.full_like(x, 0.5))
        want = 0.5 * float(np.sum(g.weight_tensor())) ** (1.0 / p)
        assert norm(f, p) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert norm(f * 0.0, p) == 0.0

    def test_invalid_weight_and_p(self):
        with pytest.raises(ValueError):
            WeightSpec(s=-1.0)
        g = Grid.build(MultiIndex((0.5,)), R=2.0, n=128)
        f = g.sample(lambda x: x)
        with pytest.raises(ValueError):
            norm(f, 0.5)


class TestBallMeasure:
    def test_d1_closed_form(self):
        g = Grid.build(MultiIndex((1.0,)), R=10.0, n=256)
        # nu(B(3,1)) = int_2^4 x^2 dx = (4^3-2^3)/3
        assert ball_measure(g, [3.0], 1.0) == pytest.approx(
            (64.0 - 8.0) / 3.0, rel=1e-14)

    def test_d1_clips_at_origin_and_truncation(self):
        g = Grid.build(MultiIndex((0.5,)), R=5.0, n=128)
        assert ball_measure(g, [0.5], 2.0) == pytest.approx(
            2.5**2 / 2.0, rel=1e-14)

    def test_d2_mask_agrees_with_area(self):
        g = Grid.build(MultiIndex((0.0, 0.0)), R=8.0, n=256)
        got = ball_measure(g, [4.0, 4.0], 1.5)
        assert got == pytest.approx(np.pi * 1.5**2, rel=5e-3)

    def test_rejects_bad_inputs(self):
        g = Grid.build(MultiIndex((0.5,)), R=5.0, n=128)
        with pytest.raises(ValueError):
            ball_measure(g, [1.0], -1.0)
        with pytest.raises(ValueError):
            ball_measure(g, [0.0], 1.0)


class TestDilate:
    def test_l1_mass_preserved(self):
        g = Grid.build(MultiIndex((0.5,)), R=16.0, n=512)
        f = g.sample(lambda x: np.exp(-((x - 4.0) ** 2)))
        # t = 0.5 pushes 1.55e-8 of the mass beyond R
        with pytest.warns(MassDeficitWarning, match="1.55e-08"):
            for t in (0.5, 2.0):
                ft = dilate(f, t)
                assert abs(integrate(ft)) == pytest.approx(
                    abs(integrate(f)), rel=1e-6)

    def test_pointwise_definition(self):
        g = Grid.build(MultiIndex((0.5,)), R=16.0, n=512)
        f = g.sample(lambda x: np.exp(-((x - 4.0) ** 2)))
        t = 2.0
        ft = dilate(f, t)
        x = g.axes[0].nodes
        inside = x < g.axes[0].R / t
        want = t**g.alpha.Q * np.exp(-((t * x - 4.0) ** 2))
        # cubic resampling leaves interpolation error at the 1e-6 scale
        assert np.max(np.abs(ft.values.real[inside] - want[inside])) < 5e-6

    def test_mass_deficit_warns(self):
        g = Grid.build(MultiIndex((0.5,)), R=8.0, n=256)
        f = g.sample(lambda x: np.exp(-((x - 6.0) ** 2)))
        with pytest.warns(MassDeficitWarning):
            dilate(f, 0.25)

    def test_rejects_nonpositive_t(self):
        g = Grid.build(MultiIndex((0.5,)), R=4.0, n=128)
        f = g.sample(lambda x: x)
        with pytest.raises(ValueError):
            dilate(f, 0.0)

