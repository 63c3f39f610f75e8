"""Localized Sobolev norms, potential kernels, and dyadic profiles."""

import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from hankellab.dyadic import make_partition
from hankellab.sobolev import (BOX_HALFWIDTH, SobolevProfile,
                               SpectralTailWarning, _box_geometry,
                               box_samples, box_top_frequency, hormander_sup,
                               local_sobolev_norm, potential_symbol)
from hankellab.symbols import (bump_symbol, constant_symbol,
                               divergent_symbol, laplace_type_symbol)

mpmath.mp.dps = 25


def whole_box_norms(n, eta, samples, js, betas):
    """The localized norms at each (j, beta) with n(2^j .) sampled on the
    whole box, as they were computed before evaluation was restricted to
    eta's support."""
    d = n.d
    step = 2.0 * BOX_HALFWIDTH / samples
    u = -BOX_HALFWIDTH + step * np.arange(samples)
    xi = 2.0 * np.pi * np.fft.fftfreq(samples, d=step)
    mesh = np.stack(np.meshgrid(*([u] * d), indexing="ij"), axis=-1)
    etav = np.asarray(eta(mesh), dtype=complex)
    xi2 = np.zeros((samples,) * d)
    for k in range(d):
        sh = [1] * d
        sh[k] = samples
        xi2 = xi2 + (xi**2).reshape(sh)
    dxi = 2.0 * np.pi / (2.0 * BOX_HALFWIDTH)
    norms = {}
    for j in js:
        spec = np.fft.fftn(etav * n(mesh * 2.0**j)) * step**d
        for beta in betas:
            density = np.abs(spec) ** 2 * (1.0 + xi2) ** beta
            norms[j, beta] = float(np.sqrt(np.sum(density) * dxi**d
                                           / (2.0 * np.pi) ** d))
    return norms


_WINDOWS = {
    "plain": make_partition("plain"),
    "squared": make_partition("squared"),
    "ones": lambda u: np.ones(np.asarray(u).shape[:-1]),
}


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
        with pytest.warns(SpectralTailWarning):
            norms = [local_sobolev_norm(n, 0, b)
                     for b in (0.0, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(norms, norms[1:]))

    def test_window_independence_up_to_constant(self):
        # the two admissible windows give comparable profiles
        n = laplace_type_symbol(1, "imag_power", gamma=1.0)
        with pytest.warns(SpectralTailWarning):
            a = local_sobolev_norm(n, 0, 2.0)
            b = local_sobolev_norm(n, 0, 2.0, eta=make_partition("squared"))
        assert 0.2 <= a / b <= 5.0

    def test_oscillation_raises_high_order_norm(self):
        from hankellab.symbols import oscillatory_symbol

        slow = oscillatory_symbol(1, 2)
        fast = oscillatory_symbol(1, 16)
        b = 2.0
        with pytest.warns(SpectralTailWarning):
            assert local_sobolev_norm(fast, 0, b) > \
                4.0 * local_sobolev_norm(slow, 0, b)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            local_sobolev_norm(bump_symbol(1), 0, -1.0)

    @pytest.mark.parametrize("d,samples", [(1, 2048), (2, 512), (2, 1024)])
    @pytest.mark.parametrize("window", sorted(_WINDOWS))
    def test_support_only_matches_whole_box(self, d, samples, window):
        n = laplace_type_symbol(d, "imag_power", gamma=1.0)
        eta = _WINDOWS[window]
        want = whole_box_norms(n, eta, samples, (-6, 0, 5), (0.0, 2.5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SpectralTailWarning)
            for (j, beta), norm in want.items():
                got = local_sobolev_norm(n, j, beta, eta=eta, samples=samples)
                assert got == pytest.approx(norm, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("d,samples", [(1, 2048), (2, 1024), (3, 64)])
    @pytest.mark.parametrize("variant", ["plain", "squared"])
    def test_partition_window_sees_only_its_support_block(
            self, d, samples, variant, monkeypatch):
        # the bump vanishes for |u| >= 2, so it is evaluated at most on the
        # nodes with every |u_k| <= 2
        from hankellab.dyadic import DyadicPartition
        from hankellab.sobolev import _windowed_box

        points = []
        call = DyadicPartition.__call__

        def recording(self, u):
            points.append(np.asarray(u).size // d)
            return call(self, u)

        monkeypatch.setattr(DyadicPartition, "__call__", recording)
        _windowed_box.__wrapped__(d, samples, 2.0, make_partition(variant))
        step = 2.0 * BOX_HALFWIDTH / samples
        assert 0 < sum(points) <= (int(4.0 / step) + 1) ** d

    def test_fresh_windows_are_not_cached(self):
        # a window built per call (as global_sobolev_norm's is) must not
        # pile up cache entries
        from hankellab.sobolev import _windowed_box

        before = _windowed_box.cache_info()
        with pytest.warns(SpectralTailWarning):
            for _ in range(3):
                local_sobolev_norm(
                    bump_symbol(1), 0, 1.0,
                    eta=lambda u: np.ones(np.asarray(u).shape[:-1]))
        assert _windowed_box.cache_info() == before

    @pytest.mark.parametrize("beta", [2.0, 1.7])
    def test_cold_window_build_holds_one_lattice(self, beta):
        # the weight (1+|xi|^2)^beta is formed in place on the |xi|^2
        # lattice: one float lattice of 8 bytes per point of the 1024^2
        # box, where three took 27.8 bytes per point in all
        from hankellab.sobolev import _box_geometry, _windowed_box

        tracemalloc.start()
        try:
            window = _windowed_box.__wrapped__(2, 1024, beta,
                                               make_partition("plain"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024**2
        want = (1.0 + _box_geometry(2, 1024)[3]) ** beta
        assert np.array_equal(window[4], want)

    def test_warm_call_holds_no_box_sized_spectrum(self):
        # the once-transformed block and one slab: about 6 bytes per point
        # of the 1024^2 box, where a spectrum alone would take 16
        n = laplace_type_symbol(2, "imag_power", gamma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SpectralTailWarning)
            local_sobolev_norm(n, 0, 2.0, samples=1024)  # builds the window
            tracemalloc.start()
            try:
                local_sobolev_norm(n, 3, 2.0, samples=1024)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * 1024**2

    @pytest.mark.parametrize("d,tail", [(1, "6.0e-01"), (2, "6.7e-01")])
    def test_nyquist_tail_warned(self, d, tail):
        with pytest.warns(SpectralTailWarning, match=f"tail {tail} .*j=-8"):
            local_sobolev_norm(divergent_symbol(d), -8, 2.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_box_top_frequency_is_the_lattice_nyquist(d):
    # the axis frequencies depend on the sample count alone, so the d = 1
    # lattice of box_samples(d) samples holds them
    _, xi, _, _ = _box_geometry(1, box_samples(d))
    assert box_top_frequency(d) == pytest.approx(np.max(np.abs(xi)),
                                                 rel=1e-15, abs=0.0)


class TestProfile:
    def test_flat_for_scale_invariant_symbol(self):
        # |s|^{-i gamma} is dilation-invariant up to phase: profile is flat
        n = laplace_type_symbol(1, "imag_power", gamma=1.0)
        with pytest.warns(SpectralTailWarning):
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

    def test_no_state_leaks_between_profiles(self):
        n = laplace_type_symbol(2, "imag_power", gamma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SpectralTailWarning)
            first, other, again = (hormander_sup(n, beta, (-2, 2)).norms
                                   for beta in (2.0, 3.0, 2.0))
        assert first == again
        assert all(other[j] != first[j] for j in first)

    def test_flatness_handles_vanishing(self):
        prof = SobolevProfile(norms={0: 0.0, 1: 1.0})
        assert prof.flatness() == float("inf")


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
