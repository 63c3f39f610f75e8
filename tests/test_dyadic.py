"""Dyadic partition of unity: support, telescoping, smoothness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankellab.dyadic import ZERO_CLIP, make_partition, smooth_chi, smoothstep


def _sum_of_pieces(psi, j_lo, j_hi, r):
    """sum of psi.piece(j, .) over j in [j_lo, j_hi] at radii r."""
    u = np.asarray(r, dtype=float)[..., None]
    return sum(psi.piece(j, u) for j in range(j_lo, j_hi + 1))


class TestSmoothstep:
    def test_endpoints_and_monotonicity(self):
        t = np.linspace(-1.0, 2.0, 400)
        v = smoothstep(t)
        assert np.all(v[t <= 0] == 0.0)
        assert np.all(v[t >= 1] == 1.0)
        assert np.all(np.diff(v) >= -1e-15)

    def test_chi_plateau(self):
        r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        v = smooth_chi(r)
        assert v[0] == 1.0 and v[1] == 1.0 and v[2] == 1.0
        assert v[4] == 0.0 and v[5] == 0.0
        assert 0.0 < v[3] < 1.0


class TestPartition:
    @pytest.mark.parametrize("variant", ["plain", "squared"])
    def test_support_annulus(self, variant):
        psi = make_partition(variant)
        r = np.geomspace(1e-3, 1e3, 2001)
        v = psi.radial(r)
        assert np.all(v[(r < 0.5) | (r > 2.0)] == 0.0)
        assert np.all(v >= 0.0)
        assert np.max(v) > 0.5

    def test_plain_telescopes_to_one(self):
        psi = make_partition("plain")
        r = np.geomspace(2.0**-6, 2.0**6, 5001)
        s = _sum_of_pieces(psi, -10, 10, r)
        assert np.max(np.abs(s - 1.0)) < 1e-14

    def test_squared_telescopes_to_one(self):
        psi = make_partition("squared")
        r = np.geomspace(2.0**-6, 2.0**6, 5001)
        s = _sum_of_pieces(psi, -10, 10, r)
        assert np.max(np.abs(s - 1.0)) < 1e-14

    def test_dilated_is_rescaled(self):
        # the plain piece j is the bump dilated by 2^j
        psi = make_partition("plain")
        u = np.array([[0.9], [1.7]])
        assert np.allclose(psi.piece(2, u), psi(u / 4.0))

    def test_vector_argument_is_radial(self):
        psi = make_partition("plain")
        u = np.array([0.6, 0.8])  # |u| = 1.0
        assert float(psi(u)) == pytest.approx(float(psi.radial(np.array([1.0]))[0]))

    def test_squared_sums_only_the_nonzero_neighbours(self):
        # the squared bump's denominator summed over k = -3..3, as it once
        # was: the terms |k| >= 2 vanish on the bump's support, 1/2 < r < 2,
        # so the values are the same floats
        r = np.concatenate([np.geomspace(1e-6, 1e6, 200001),
                            np.linspace(0.49, 2.01, 100001)])
        base = smooth_chi(r) - smooth_chi(2.0 * r)
        base = np.where(np.abs(base) < ZERO_CLIP, 0.0, base)
        den = sum((smooth_chi(2.0**-k * r) - smooth_chi(2.0 ** (1 - k) * r))
                  ** 2 for k in range(-3, 4))
        with np.errstate(invalid="ignore", divide="ignore"):
            want = np.where(base != 0.0, base / np.sqrt(
                np.where(den > 0, den, 1.0)), 0.0)
        np.testing.assert_array_equal(make_partition("squared").radial(r),
                                      want)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            make_partition("cubed")

    @given(logr=st.floats(-12.0, 12.0))
    @settings(max_examples=80, deadline=None)
    def test_pointwise_partition_property(self, logr):
        r = float(2.0**logr)
        plain = _sum_of_pieces(make_partition("plain"), -25, 25, r)
        sq = _sum_of_pieces(make_partition("squared"), -25, 25, r)
        assert plain == pytest.approx(1.0, abs=1e-12)
        assert sq == pytest.approx(1.0, abs=1e-12)
