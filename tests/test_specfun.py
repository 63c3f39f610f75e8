"""Special-function layer against independent oracles (mpmath, series)."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankellab import specfun, transform
from hankellab.dyadic import make_partition
from hankellab.grid import Grid
from hankellab.specfun import (MultiIndex, bessel_operator_fd, e_kernel_axis,
                               inorm_scaled, jnorm)
from hankellab.symbols import laplace_type_symbol
from hankellab.transform import TransformPlan
from hankellab.verify import _cz_piece, default_cz_pairs

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
    # J_nu(x) = x^nu jnorm(nu, x)
    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 1.5, 0.25, 2.7,
                                    -0.95, -0.7])
    @pytest.mark.parametrize("x", [1e-3, 0.3, 1.0, 4.5, 20.0, 150.0])
    def test_against_mpmath(self, nu, x):
        got = x**nu * float(jnorm(nu, np.array([x]))[0])
        want = float(mpmath.besselj(nu, x))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_limits_at_zero(self):
        # x^nu jnorm(nu, x) at x = 0: 0, 1 and inf for nu = 1/2, 0, -1/2
        with np.errstate(divide="ignore"):
            at_zero = {nu: np.float64(0.0)**nu * jnorm(nu, np.array([0.0]))[0]
                       for nu in (0.5, 0.0, -0.5)}
        assert at_zero[0.5] == 0.0
        assert at_zero[0.0] == 1.0
        assert np.isinf(at_zero[-0.5])

    def test_rejects_bad_order(self):
        for fn in (jnorm, inorm_scaled):
            for nu in (-1.0, float("nan")):
                with pytest.raises(ValueError, match="order"):
                    fn(nu, np.array([1.0]))

    @given(nu=st.floats(-0.95, 5.0), x=st.floats(1e-6, 200.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_mpmath_property(self, nu, x):
        got = x**nu * float(jnorm(nu, np.array([x]))[0])
        want = float(mpmath.besselj(nu, x))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-11)


class TestScaledI:
    # e^{-x} I_mu(x) = x^mu inorm_scaled(mu, x)
    @pytest.mark.parametrize("mu", [-0.5, 0.0, 0.5, 1.3])
    @pytest.mark.parametrize("x", [1e-4, 0.2, 1.0, 10.0, 500.0])
    def test_against_mpmath(self, mu, x):
        got = x**mu * float(inorm_scaled(mu, np.array([x]))[0])
        want = float(mpmath.besseli(mu, x) * mpmath.exp(-x))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_no_overflow_at_huge_argument(self):
        # cephes ive returns nan near 1e9; the expansion holds there
        assert np.all(np.isfinite(inorm_scaled(0.3, np.array([1e6, 1e9]))))


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


def mp_jnorm(nu, u):
    return float(mpmath.mpf(u) ** (-nu) * mpmath.besselj(nu, u))


def mp_inorm_scaled(nu, u):
    return float(mpmath.mpf(u) ** (-nu) * mpmath.besseli(nu, u)
                 * mpmath.exp(-u))


# the fixed-order tables and expansions are judged against the envelope
# u^{-nu-1/2} of both functions, which the oscillation of J does not share
ENVELOPE_TOL = 1e-13


def envelope_error(got, want, nu, u):
    return np.max(np.abs(np.asarray(got) - want) / u ** (-nu - 0.5))


def probe_points(kind, nu, top):
    """Decades from the series cutoff to top, a scan of the table's range
    and both sides of its upper end."""
    upper = specfun._table(kind, nu).upper
    return np.concatenate([np.geomspace(0.5, top, 60),
                           np.linspace(0.55, upper + 2.0, 90),
                           [np.nextafter(upper, 0.0), upper]])


class TestFixedOrderTables:
    @pytest.mark.parametrize("nu", [-0.45, 0.3, 0.8, 2.7, 11.8])
    def test_jnorm_against_mpmath(self, nu):
        u = probe_points("J", nu, 1e4)
        want = np.array([mp_jnorm(nu, x) for x in u])
        assert envelope_error(jnorm(nu, u), want, nu, u) <= ENVELOPE_TOL

    @pytest.mark.parametrize("nu", [-0.45, 0.0, 0.8, 2.3])
    def test_inorm_scaled_against_mpmath(self, nu):
        u = probe_points("I", nu, 1e9)
        want = np.array([mp_inorm_scaled(nu, x) for x in u])
        assert envelope_error(inorm_scaled(nu, u), want, nu, u) \
            <= ENVELOPE_TOL

    # every order but 0, which cephes j0 evaluates untabled
    @given(nu=st.floats(-0.95, 6.0).filter(lambda nu: nu != 0.0),
           u=st.floats(0.5, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_jnorm_matches_mpmath_property(self, nu, u):
        got = jnorm(nu, np.array([u]))
        assert envelope_error(got, mp_jnorm(nu, u), nu, u) <= ENVELOPE_TOL

    @given(nu=st.floats(-0.95, 6.0), u=st.floats(0.5, 1e9))
    @settings(max_examples=60, deadline=None)
    def test_inorm_scaled_matches_mpmath_property(self, nu, u):
        got = inorm_scaled(nu, np.array([u]))
        assert envelope_error(got, mp_inorm_scaled(nu, u), nu, u) \
            <= ENVELOPE_TOL

    @pytest.mark.parametrize("kind,fn", [("J", jnorm), ("I", inorm_scaled)])
    @pytest.mark.parametrize("nu", [-0.45, 0.8, 2.7, 11.8])
    def test_continuous_across_each_switch(self, kind, fn, nu):
        # series to the first cell at the cutoff, the last cell to the
        # expansion at the table's upper end: adjacent floats, one per side
        upper = specfun._table(kind, nu).upper
        for edge in (0.5, np.nextafter(upper, 0.0)):
            u = np.array([edge, np.nextafter(edge, np.inf)])
            v = fn(nu, u)
            assert abs(v[1] - v[0]) <= ENVELOPE_TOL * u[0] ** (-nu - 0.5)

    def test_upper_end_grows_like_the_order_squared(self):
        # past the orders whose upper end is the floor _MIN_UPPER
        small, large = (specfun._table("J", nu).upper for nu in (20.3, 40.3))
        assert 3.5 < large / small < 5.5

    def test_jv_is_called_only_to_seed_the_table(self, monkeypatch):
        # one alpha = 1.3 CZ piece: every jv argument is a table centre,
        # two arrays of them (orders nu and nu + 1), however many points
        # the kernel matrix holds
        specfun._table.cache_clear()
        seeds, points = [], [0]
        jv, kernel = specfun.jv, transform.e_kernel_axis

        def counted_jv(nu, x):
            seeds.append(np.array(x, dtype=float).ravel())
            return jv(nu, x)

        def counted_kernel(alpha_k, u):
            points[0] += np.size(u)
            return kernel(alpha_k, u)

        monkeypatch.setattr(specfun, "jv", counted_jv)
        monkeypatch.setattr(transform, "e_kernel_axis", counted_kernel)
        y, yp = default_cz_pairs()[4]
        jstar = int(np.ceil(-2.0 * np.log2(2.0 * abs(y[0] - yp[0]))))
        _cz_piece(MultiIndex((1.3,)),
                  laplace_type_symbol(1, "imag_power", gamma=1.0),
                  make_partition("plain"), y, yp, jstar)
        cells = specfun._table("J", 0.8).coefs.shape[1]
        centres = specfun._SERIES_CUTOFF + specfun._CELL * np.arange(cells)
        assert len(seeds) == 2
        assert all(np.array_equal(x, centres) for x in seeds)
        assert points[0] > 100 * cells

    def test_cli_import_builds_no_table_and_loads_no_scipy_module(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        code = ("import sys, scipy.special\n"
                "def loaded():\n"
                "    return {m for m in sys.modules\n"
                "            if m.split('.')[0] == 'scipy'}\n"
                "before = loaded()\n"
                "import hankellab.cli\n"
                "from hankellab import specfun\n"
                "print(sorted(loaded() - before),\n"
                "      specfun._table.cache_info().currsize)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout.split() == ["[]", "0"]


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

    @given(a=st.floats(-0.5, 8.0, exclude_min=True))
    @example(a=float(np.nextafter(-0.5, 0.0)))
    @example(a=float(np.nextafter(np.nextafter(-0.5, 0.0), 0.0)))
    @example(a=8.0)
    @settings(max_examples=40, deadline=None)
    def test_every_alpha_multiindex_takes_gives_finite_kernels(self, a):
        # MultiIndex and the kernels agree on the orders they take
        try:
            alpha = MultiIndex((a,))
        except ValueError:
            # only where the order a - 1/2 rounds to -1
            assert a - 0.5 == -1.0
            return
        u = np.linspace(0.0, 1e3, 257)
        assert np.all(np.isfinite(e_kernel_axis(a, u)))
        plan = TransformPlan.build(Grid.build(alpha, R=4.0, n=32))
        assert np.all(np.isfinite(plan.fwd[0]))


class TestBesselOperatorFD:
    def test_quadratic_exact(self):
        # L x^2 = -2 - 4 alpha, exactly reproduced by second-order stencils
        a = 0.75
        x = np.sort(np.concatenate([np.linspace(0.1, 4.0, 50),
                                    [0.37, 1.234, 2.71]]))
        got = bessel_operator_fd(a, x**2, x)
        assert np.allclose(got, -2.0 - 4.0 * a, rtol=0, atol=1e-9)
