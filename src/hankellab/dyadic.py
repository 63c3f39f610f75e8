"""Dyadic partition of unity on the annulus A_{1/2,2}.

The bump is chi(|u|) - chi(2|u|) with chi a smooth step glued from the
standard exp(-1/t) mollifier: 1 on [0,1], 0 on [2,inf).  The squared
variant renormalizes by the locally finite sum so the squares telescope
to 1; the denominator is bounded below on the support, so smoothness is
preserved.
"""

from dataclasses import dataclass

import numpy as np

# values below this are identically zero as far as the partition is concerned
ZERO_CLIP = 1e-300
# outer radius of A_{1/2,2}: both variants are exactly 0 for |u| >= this
SUPPORT_RADIUS = 2.0


def _glue(t):
    """exp(-1/t) for t > 0, else 0; the C^infty gluing function."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        out = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
    return out


def smoothstep(t):
    """C^infty monotone step: 0 for t <= 0, 1 for t >= 1."""
    a = _glue(t)
    return a / (a + _glue(1.0 - np.asarray(t, dtype=float)))


def smooth_chi(r):
    """Smooth radial cutoff: 1 on [0,1], 0 on [2,inf)."""
    return 1.0 - smoothstep(np.asarray(r, dtype=float) - 1.0)


@dataclass(frozen=True)
class DyadicPartition:
    """Radial bump psi supported in A_{1/2,2} whose dyadic dilates sum to 1.

    variant 'plain' sums to 1, 'squared' has squares summing to 1.
    """

    variant: str

    def radial(self, r):
        r = np.asarray(r, dtype=float)
        chi_r, chi_2r = smooth_chi(r), smooth_chi(2.0 * r)
        base = chi_r - chi_2r
        base = np.where(np.abs(base) < ZERO_CLIP, 0.0, base)
        if self.variant == "plain":
            return base
        # the squared dilates b_k = chi(2^-k r) - chi(2^(1-k) r) summed over
        # k = -1, 0, 1, the only ones nonzero on the support of base,
        # 1/2 < r < 2; neighbours share a cutoff, and a clipped b_0 squares
        # to 0 either way
        b_lo = chi_2r - smooth_chi(4.0 * r)
        b_hi = smooth_chi(0.5 * r) - chi_r
        den = b_lo * b_lo + base * base + b_hi * b_hi
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(base != 0.0, base / np.sqrt(np.where(den > 0, den, 1.0)), 0.0)
        return out

    def __call__(self, u):
        """Evaluate at vector arguments; last axis indexes the d components."""
        u = np.asarray(u, dtype=float)
        return self.radial(np.sqrt(np.sum(u * u, axis=-1)))

    def piece(self, j, u):
        """The j-th term of the partition of unity at vector arguments:
        psi(2^{-j} u) for 'plain', its square for 'squared'."""
        p = self(np.asarray(u, dtype=float) * 2.0**-j)
        return p * p if self.variant == "squared" else p


def make_partition(variant):
    """Build the dyadic partition bump; variant 'plain' or 'squared'."""
    if variant not in ("plain", "squared"):
        raise ValueError("variant must be 'plain' or 'squared'")
    return DyadicPartition(variant)
