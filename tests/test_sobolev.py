"""Localized Sobolev norms, potential kernels, and dyadic profiles."""

import warnings

import mpmath
import numpy as np
import pytest

from hankellab.dyadic import make_partition
from hankellab.sobolev import (PotentialFamily, SobolevProfile,
                               bessel_potential_kernel, hormander_sup,
                               local_sobolev_norm, potential_symbol)
from hankellab.symbols import (bump_symbol, constant_symbol,
                               divergent_symbol, laplace_type_symbol)

mpmath.mp.dps = 25


class TestLocalNorm:
    def test_beta_zero_matches_l2_oracle(self):
        # ||eta||_{W^0_2} = ||eta||_{L^2}, computed independently by mpmath
        n = constant_symbol(1, 1.0)
        got = local_sobolev_norm(n, 0, 0.0)
        eta = make_partition("plain")
        want = float(mpmath.sqrt(2 * mpmath.quad(
            lambda r: float(eta(np.array([float(r)]))) ** 2, [0.5, 2.0])))
        assert got == pytest.approx(want, rel=1e-6)

    def test_norm_increases_with_beta(self):
        n = bump_symbol(1)
        norms = [local_sobolev_norm(n, 0, b) for b in (0.0, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(norms, norms[1:]))

    def test_window_independence_up_to_constant(self):
        # the two admissible windows give comparable profiles
        n = laplace_type_symbol(1, "imag_power", gamma=1.0)
        a = local_sobolev_norm(n, 0, 2.0)
        b = local_sobolev_norm(n, 0, 2.0, eta=make_partition("squared"))
        assert 0.2 <= a / b <= 5.0

    def test_oscillation_raises_high_order_norm(self):
        from hankellab.symbols import oscillatory_symbol

        slow = oscillatory_symbol(1, 2)
        fast = oscillatory_symbol(1, 16)
        b = 2.0
        assert local_sobolev_norm(fast, 0, b) > 4.0 * local_sobolev_norm(slow, 0, b)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            local_sobolev_norm(bump_symbol(1), 0, -1.0)


class TestProfile:
    def test_flat_for_scale_invariant_symbol(self):
        # |s|^{-i gamma} is dilation-invariant up to phase: profile is flat
        n = laplace_type_symbol(1, "imag_power", gamma=1.0)
        prof = hormander_sup(n, 2.0, (-6, 6))
        assert prof.flatness() < 1.2

    def test_divergent_profile_blows_up(self):
        n = divergent_symbol(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prof = hormander_sup(n, 2.0, (-8, 0))
        lows = [prof.norms[j] for j in (-8, -7)]
        highs = [prof.norms[j] for j in (-1, 0)]
        assert min(lows) > 10.0 * max(highs)

    def test_flatness_handles_vanishing(self):
        prof = SobolevProfile(beta=1.0, eta="default", j_range=(0, 1),
                              norms={0: 0.0, 1: 1.0})
        assert prof.flatness() == float("inf")


class TestPotentialKernel:
    def test_g2_closed_form_d1(self):
        # G_2(x) = e^{-|x|}/2 in one dimension (Fourier pair of (1+xi^2)^{-1})
        for x in (0.25, 1.0, 3.0):
            got = bessel_potential_kernel(2.0, np.array([x]), d=1)
            assert complex(got[0] if np.ndim(got) else got).real == \
                pytest.approx(np.exp(-x) / 2.0, rel=1e-8)

    def test_total_mass_one(self):
        # int G_s = F G_s(0) = 1 for real s
        xs = np.linspace(1e-3, 30.0, 12000).reshape(-1, 1)
        vals = np.real(bessel_potential_kernel(1.5, xs, d=1))
        mass = 2.0 * np.trapezoid(vals.ravel(), xs.ravel())
        assert mass == pytest.approx(1.0, abs=2e-3)

    def test_rejects_origin_and_bad_z(self):
        with pytest.raises(ValueError):
            bessel_potential_kernel(2.0, np.array([0.0]), d=1)
        with pytest.raises(ValueError):
            bessel_potential_kernel(-1.0, np.array([1.0]), d=1)


class TestPotentialFamily:
    def test_constructed_symbol_is_bounded_by_h(self):
        sym = potential_symbol(1, 2.0, "bump")
        u = np.linspace(-6, 6, 301).reshape(-1, 1)
        assert np.max(np.abs(sym(u))) <= sym.sup_norm

    def test_smoothing_spreads_support(self):
        # h * G_s is strictly positive off the bump support
        sym = potential_symbol(1, 2.0, "bump")
        val = abs(complex(sym(np.array([[3.0]]))[0]))
        assert val > 1e-8

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            potential_symbol(1, 2.0, "nonexistent")
