"""Special-function layer against independent oracles (mpmath, series)."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankellab.grid import Grid
from hankellab.specfun import (MultiIndex, _ive_safe, bessel_j,
                               bessel_operator_fd, e_kernel_axis,
                               inorm_scaled, jnorm)
from hankellab.transform import TransformPlan

mpmath.mp.dps = 30


class TestMultiIndex:
    def test_homogeneous_dimension(self):
        a = MultiIndex((0.5, 1.5))
        assert a.d == 2
        assert a.Q == pytest.approx((2 * 0.5 + 1) + (2 * 1.5 + 1))

    def test_scalar_promotes(self):
        assert MultiIndex(1.0).alpha == (1.0,)

    @pytest.mark.parametrize("bad", [(), (-0.5,), (float("nan"),), (0.5, -1.0)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            MultiIndex(bad)


class TestBesselJ:
    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 1.5, 0.25, 2.7])
    @pytest.mark.parametrize("x", [1e-3, 0.3, 1.0, 4.5, 20.0, 150.0])
    def test_against_mpmath(self, nu, x):
        got = float(bessel_j(nu, x))
        want = float(mpmath.besselj(nu, x))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_limits_at_zero(self):
        assert bessel_j(0.5, 0.0) == 0.0
        assert bessel_j(0.0, 0.0) == 1.0
        assert np.isinf(bessel_j(-0.5, 0.0))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            bessel_j(-1.0, 1.0)

    @given(nu=st.floats(-0.5, 5.0), x=st.floats(1e-6, 200.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_mpmath_property(self, nu, x):
        got = float(bessel_j(nu, x))
        want = float(mpmath.besselj(nu, x))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-11)


class TestScaledI:
    # e^{-x} I_mu(x), the scaled factor inside inorm_scaled
    @pytest.mark.parametrize("mu", [-0.5, 0.0, 0.5, 1.3])
    @pytest.mark.parametrize("x", [1e-4, 0.2, 1.0, 10.0, 500.0])
    def test_against_mpmath(self, mu, x):
        got = float(_ive_safe(mu, np.array([x]))[0])
        want = float(mpmath.besseli(mu, x) * mpmath.exp(-x))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_no_overflow_at_huge_argument(self):
        # 1e9 lies past the switch to the asymptotic expansion
        assert np.all(np.isfinite(_ive_safe(0.3, np.array([1e6, 1e9]))))


class TestNormalizedKernels:
    @pytest.mark.parametrize("nu", [-0.49, -0.2, 0.0, 0.7, 2.0])
    def test_jnorm_zero_limit(self, nu):
        # u^{-nu} J_nu(u) -> 1 / (2^nu Gamma(nu+1)) as u -> 0
        want = float(1.0 / (mpmath.mpf(2) ** nu * mpmath.gamma(nu + 1)))
        assert float(jnorm(nu, np.array([0.0]))[0]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("nu", [-0.49, 0.0, 1.1])
    def test_jnorm_branches_agree_at_cutoff(self, nu):
        # series branch and direct product branch overlap smoothly
        u = np.array([0.5 - 1e-10, 0.5 + 1e-10])
        v = jnorm(nu, u)
        assert abs(v[1] - v[0]) < 1e-9 * abs(v[0])

    @pytest.mark.parametrize("nu", [-0.45, 0.0, 0.5, 1.5])
    @pytest.mark.parametrize("u", [1e-8, 0.01, 0.499, 0.501, 3.0, 40.0])
    def test_jnorm_against_mpmath(self, nu, u):
        got = float(jnorm(nu, np.array([u]))[0])
        want = float(mpmath.mpf(u) ** (-nu) * mpmath.besselj(nu, u))
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("nu", [-0.45, 0.0, 0.5, 1.5])
    @pytest.mark.parametrize("u", [1e-8, 0.01, 0.499, 0.501, 3.0, 40.0, 1e6])
    def test_inorm_scaled_against_mpmath(self, nu, u):
        got = float(inorm_scaled(nu, np.array([u]))[0])
        want = float(mpmath.mpf(u) ** (-nu) * mpmath.besseli(nu, u)
                     * mpmath.exp(-u))
        assert got == pytest.approx(want, rel=1e-10)

    @given(u=st.floats(0.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_jnorm_bounded_by_value_at_zero(self, u):
        nu = 0.7
        v0 = float(jnorm(nu, np.array([0.0]))[0])
        assert abs(float(jnorm(nu, np.array([u]))[0])) <= v0 * (1 + 1e-12)


class TestEigenfunctionKernel:
    def test_product_structure(self):
        # E_y on a d = 2 dual grid is the product of the one-axis factors
        grid = Grid.build(MultiIndex((0.3, 1.2)), R=4.0, n=32)
        plan = TransformPlan.build(grid)
        y = np.array([1.5, 0.7])
        lam0, lam1 = (ax.nodes for ax in plan.dual_grid.axes)
        want = np.outer(e_kernel_axis(0.3, 1.5 * lam0),
                        e_kernel_axis(1.2, 0.7 * lam1))
        np.testing.assert_allclose(plan.e_dual(y), want, rtol=1e-14)

    @pytest.mark.parametrize("alpha_k", [0.0, 0.5, 1.0, 1.7])
    @pytest.mark.parametrize("lam", [0.8, 2.5])
    def test_eigenfunction_identity(self, alpha_k, lam):
        # L E_x(lam) = |lam|^2 E_x(lam), L applied by finite differences
        x = np.linspace(0.05, 6.0, 4000)
        f = e_kernel_axis(alpha_k, lam * x)
        Lf = bessel_operator_fd(alpha_k, f, x)
        want = lam**2 * f[1:-1]
        scale = np.max(np.abs(want))
        assert np.max(np.abs(Lf - want)) < 5e-4 * scale


class TestBesselOperatorFD:
    def test_quadratic_exact(self):
        # L x^2 = -2 - 4 alpha, exactly reproduced by second-order stencils
        a = 0.75
        x = np.sort(np.concatenate([np.linspace(0.1, 4.0, 50),
                                    [0.37, 1.234, 2.71]]))
        got = bessel_operator_fd(a, x**2, x)
        assert np.allclose(got, -2.0 - 4.0 * a, rtol=0, atol=1e-9)
