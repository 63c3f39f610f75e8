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

from hankellab import specfun, verify
from hankellab.grid import Grid
from hankellab.specfun import (MultiIndex, e_kernel_axis, gamma_one_plus_i,
                               inorm_scaled, jnorm)
from hankellab.symbols import laplace_type_symbol
from hankellab.transform import TransformPlan
from hankellab.verify import _cz_band, _cz_dual, _cz_piece, default_cz_pairs

from paper_checks import bessel_operator_fd

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
        # adjacent points either side of 1/2 agree
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
    upper = specfun._upper(nu)
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

    # every order, 0 included
    @given(nu=st.floats(-0.95, 6.0), u=st.floats(0.5, 1e4))
    @example(nu=0.0, u=9273.0)
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
        # adjacent floats, one per side of: the edge of cell 0 (the power
        # series), the first cell edges past the seeds' switches from the
        # series to the continuation and from it to the expansion, and the
        # table's end, where the expansion takes over; each jump is judged
        # net of the function's own change between the two floats
        mp = mp_jnorm if kind == "J" else mp_inorm_scaled
        h = specfun._CELL
        near = max(0.5, (2.0 * nu + 25.0) / 32.0)
        upper = specfun._upper(nu)
        for edge in (h / 2, (np.floor(near / h) + 0.5) * h,
                     (np.ceil(upper / h) - 0.5) * h,
                     specfun._END):
            # a table that ends at _END
            u = np.array([np.nextafter(edge, 0.0), edge, specfun._END + 1.0])
            jump = np.diff(fn(nu, u)[:2]) - np.diff([mp(nu, x) for x in u[:2]])
            assert abs(jump[0]) <= ENVELOPE_TOL * u[0] ** (-nu - 0.5)

    def test_upper_end_grows_like_the_order_squared(self):
        # past the orders whose upper end is the floor _MIN_UPPER
        small, large = (specfun._upper(nu) for nu in (20.3, 40.3))
        assert 3.5 < large / small < 5.5

    def test_every_point_below_the_end_takes_the_table(self, monkeypatch):
        # one alpha = 1.3 CZ piece continues the order's series once, and
        # the expansion runs only to seed its tables: on the centres from
        # upper to a table's end, once for the value (order nu) and once
        # for the slope (order nu + 1), however many points the kernel
        # matrices hold; none of them reaches _END
        specfun._seeds.cache_clear()
        specfun._TABLES.clear()
        seeds, points, ends, continued = [], [0], [0.0], [0]
        expansion, kernel = specfun._expansion_value, verify.e_kernel_axis
        continuation = specfun._continued

        def counted_expansion(kind, nu, coefs, u):
            seeds.append((nu, np.array(u, dtype=float)))
            return expansion(kind, nu, coefs, u)

        def counted_continuation(*args):
            continued[0] += 1
            return continuation(*args)

        def counted_kernel(alpha_k, u, out=None):
            points[0] += np.size(u)
            ends[0] = max(ends[0], np.max(u))
            return kernel(alpha_k, u, out=out)

        monkeypatch.setattr(specfun, "_expansion_value", counted_expansion)
        monkeypatch.setattr(specfun, "_continued", counted_continuation)
        monkeypatch.setattr(verify, "e_kernel_axis", counted_kernel)
        y, yp = default_cz_pairs()[4]
        jstar = int(np.ceil(-2.0 * np.log2(2.0 * abs(y[0] - yp[0]))))
        piece, dual = _cz_band(y, yp)[jstar]
        alpha = MultiIndex((1.3,))
        band = _cz_dual(alpha, laplace_type_symbol(1, "imag_power", gamma=1.0),
                        jstar, dual)
        _cz_piece(alpha, band, y, yp, piece)
        h = specfun._CELL
        first = np.ceil(specfun._upper(0.8) / h) * h
        assert continued[0] == 1
        assert seeds and [nu for nu, _ in seeds] == [0.8, 1.8] * (
            len(seeds) // 2)
        for _, u in seeds:
            assert u[0] == first and np.all(np.diff(u) == h)
            assert np.log2(u[-1]) % 1.0 == 0.0
        assert points[0] > 0 and ends[0] < specfun._END

    @pytest.mark.parametrize("kind,nu", [("J", 0.0), ("J", 0.8), ("J", 2.7),
                                         ("J", 11.8), ("J", 40.3),
                                         ("I", -0.45), ("I", 0.0),
                                         ("I", 0.8), ("I", 2.3)])
    def test_seeds_no_worse_than_scipy(self, kind, nu):
        # each cell's value and slope, against mpmath, judged on the
        # envelope at the same centres as the scipy jv / ive seeds they
        # replace: the series, the continuation and the expansion each
        # take some of the centres
        from scipy.special import ive, jv

        tb = specfun._build_table(kind, nu, specfun._MAX_END)
        top = int(np.ceil(specfun._upper(nu) / specfun._CELL)) + 40
        idx = np.unique(np.concatenate([np.arange(1, 24),
                                        np.linspace(24, top, 60, dtype=int),
                                        np.geomspace(top, tb.coefs.shape[1]
                                                     - 1, 12, dtype=int)]))
        c = specfun._CELL * idx
        if kind == "J":
            want = [(mp_jnorm(nu, x), -x * mp_jnorm(nu + 1.0, x)) for x in c]
            scipy_seeds = (jv(nu, c), -jv(nu + 1.0, c))
        else:
            want = [(mp_inorm_scaled(nu, x),
                     x * mp_inorm_scaled(nu + 1.0, x) - mp_inorm_scaled(nu, x))
                    for x in c]
            value = ive(nu, c)
            scipy_seeds = (value, ive(nu + 1.0, c) - value)
        want = np.array(want).T
        scipy_seeds = np.array(scipy_seeds) * c ** (-nu)
        ours = tb.coefs[:2, idx]
        assert envelope_error(ours, want, nu, c) \
            <= envelope_error(scipy_seeds, want, nu, c)
        assert envelope_error(ours, want, nu, c) <= ENVELOPE_TOL

    def test_j0_fixed_near_u_9273(self):
        # cephes j0 misses the envelope u^{-1/2} by up to 4.3e-13 here
        u = np.linspace(9270.0, 9295.0, 101)
        want = np.array([mp_jnorm(0.0, x) for x in u])
        assert envelope_error(jnorm(0.0, u), want, 0.0, u) <= 2e-15

    def test_too_high_an_order_has_no_table(self):
        # the table's upper end passes its last centre near nu = 74.2
        specfun.check_tabled((74.0,), "alpha")
        with pytest.raises(ValueError, match="alpha"):
            specfun.check_tabled((0.5, 75.0), "alpha")
        with pytest.raises(ValueError, match="order nu = 80.3"):
            jnorm(80.3, np.array([1.0]))

    def test_cli_import_builds_no_table_and_loads_no_scipy_module(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        code = ("import sys\n"
                "import hankellab.cli\n"
                "from hankellab import specfun\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] == 'scipy'),\n"
                "      len(specfun._TABLES))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout.split() == ["[]", "0"]


class TestInPlaceKernel:
    @staticmethod
    def _same_bits(a, b):
        return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                      b.view(np.int64))

    @pytest.mark.parametrize("alpha_k", [0.2, 0.5, 1.3])
    def test_in_place_matches_a_new_array(self, alpha_k):
        # three blocks and a part, each with points on both sides of the
        # table's end: the expansion runs inside blocks the table pass has
        # already overwritten
        rng = np.random.default_rng(7)
        u = rng.uniform(0.0, 1.5 * specfun._END, (3, specfun._BLOCK + 77))
        end = specfun._table("J", alpha_k - 0.5, u.max()).end
        for lo in range(0, u.size, specfun._BLOCK):
            assert np.any(u.reshape(-1)[lo:lo + specfun._BLOCK] >= end)
        want = e_kernel_axis(alpha_k, u.copy())
        got = u.copy()
        assert e_kernel_axis(alpha_k, got, out=got) is got
        assert self._same_bits(got, want)
        other = np.empty_like(u)
        assert e_kernel_axis(alpha_k, u, out=other) is other
        assert self._same_bits(other, want)

    def test_in_place_on_an_empty_array(self):
        u = np.empty(0)
        assert e_kernel_axis(0.5, u, out=u) is u
        assert self._same_bits(u, e_kernel_axis(0.5, u.copy()))

    @pytest.mark.parametrize("out", [np.empty(5), np.empty((2, 2)),
                                     np.empty(4, np.float32),
                                     np.empty(4, complex),
                                     np.empty(8)[::2]],
                             ids=["longer", "other-shape", "float32",
                                  "complex", "strided"])
    def test_unfit_out_is_refused(self, out):
        with pytest.raises(ValueError, match="out must be"):
            e_kernel_axis(0.5, np.linspace(0.0, 3.0, 4), out=out)


class TestGammaOnePlusI:
    @pytest.mark.parametrize("g", [1e-6, 0.3, 1.0, 7.0, 40.0, -7.0])
    def test_against_mpmath(self, g):
        want = complex(mpmath.gamma(1 + 1j * mpmath.mpf(g)))
        assert abs(gamma_one_plus_i(g) - want) <= 1e-13 * abs(want)

    def test_at_zero(self):
        assert gamma_one_plus_i(0.0) == 1.0


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
