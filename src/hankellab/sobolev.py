"""Localized Sobolev norms on a periodized box, the dyadic
Hoermander-condition profile, and the potential symbol family.

The localized norm ||eta(.) n(2^j .)||_{W^beta_2} is computed as the L^2
norm of (1+|xi|^2)^{beta/2} times the Fourier transform of the compactly
supported product, via an FFT on [-B, B]^d.  The support sits inside
A_{1/2,2} subset [-2,2]^d, so a halfwidth-8 box keeps periodization
wraparound below tolerance for beta <= 6; the Nyquist-edge tail is
monitored and warned about.

Support-block rule: a partition window is exactly 0 for |u| >=
dyadic.SUPPORT_RADIUS, so it is evaluated, and its support points kept,
only on the block of box nodes with every |u_k| <= SUPPORT_RADIUS; any
other window is evaluated on the whole box.

Axis order: the bounding block of the window's support is transformed
along axes 0..d-2 first, zero-padded to the box, a pass over the block's
lines only, far fewer than the box's; the last axis follows in slabs of
SLAB_POINTS box points, each adding its weighted density and its
Nyquist-edge part to two sums.
So a call holds the once-transformed block (samples^(d-1) lines of the
block's last-axis length) and one slab.  The only samples^d lattice is the
weight (1+|xi|^2)^beta, formed in place on the |xi|^2 lattice and cached
with the window; no spectrum or density of the whole box is formed.
"""

import warnings
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .dyadic import SUPPORT_RADIUS, DyadicPartition, make_partition
from .symbols import Symbol, table_symbol

BOX_HALFWIDTH = 8.0
BOX_SAMPLES = 512
# per-axis sample counts; at j = 0 the Nyquist tail of the CLI's default
# symbol measures 1.0e-5 of the norm at d=1 and 2.4e-3 at d=2
_DEFAULT_SAMPLES = {1: 2048, 2: 1024}
# box points per slab of local_sobolev_norm's last-axis transform
SLAB_POINTS = 1 << 16


class SpectralTailWarning(UserWarning):
    """Energy at the Nyquist edge of the periodized box is not negligible."""


def box_samples(d):
    """Per-axis sample count of the periodized box in d dimensions."""
    return _DEFAULT_SAMPLES.get(d, BOX_SAMPLES)


def box_top_frequency(d):
    """The largest axis frequency |xi_k| of the box in d dimensions,
    pi samples / (2 BOX_HALFWIDTH): the Nyquist frequency of
    _box_geometry's lattice, where the weight (1+|xi|^2)^beta is largest."""
    return np.pi * box_samples(d) / (2.0 * BOX_HALFWIDTH)


def _box_geometry(d, samples):
    """Axis nodes u, frequencies xi and step of the periodized box, and
    |xi|^2 on its frequency lattice (samples^d points)."""
    step = 2.0 * BOX_HALFWIDTH / samples
    u = -BOX_HALFWIDTH + step * np.arange(samples)
    xi = 2.0 * np.pi * np.fft.fftfreq(samples, d=step)
    xi2 = reduce(np.add.outer, [xi**2] * d)
    return u, xi, step, xi2


def _mesh(nodes, d):
    """The points of the lattice nodes^d, last axis of length d."""
    return np.stack(np.meshgrid(*([nodes] * d), indexing="ij"), axis=-1)


@lru_cache(maxsize=4)
def _windowed_box(d, samples, beta, eta):
    """What local_sobolev_norm needs apart from n and j: the shape of the
    bounding box of eta's support, the flat indices within it of the points
    where eta != 0, those points and eta's values there, the weight
    (1+|xi|^2)^beta, the mask of the axis frequencies in the Nyquist-edge
    shell and the step.

    A partition window is evaluated only on its support block, the nodes
    with every |u_k| <= SUPPORT_RADIUS; it is 0 beyond, so its support and
    bounding box are those it has on the whole box, where other windows
    are evaluated.

    Cached for hashable partition windows, so the j-sweep of one profile
    builds it once; other windows call __wrapped__ and are not kept."""
    u, xi, step, xi2 = _box_geometry(d, samples)
    if isinstance(eta, DyadicPartition):
        u = u[np.abs(u) <= SUPPORT_RADIUS]
    mesh = _mesh(u, d)
    etav = np.asarray(eta(mesh), dtype=complex)
    box = tuple(slice(i.min(), i.max() + 1) if i.size else slice(0, 0)
                for i in np.nonzero(etav))
    support = np.flatnonzero(etav[box])
    # the Nyquist-edge shell holds the points with an axis frequency in the
    # top eighth of the band; edge marks those frequencies of one axis
    edge = np.abs(xi) >= (7.0 / 8.0) * np.max(np.abs(xi))
    # the weight (1+|xi|^2)^beta, formed in place on the |xi|^2 lattice
    weight = xi2
    weight += 1.0
    weight **= beta
    arrays = (support, mesh[box].reshape(-1, d)[support],
              etav[box].ravel()[support], weight, edge)
    for a in arrays:  # shared by every call that hits the cache
        a.flags.writeable = False
    return (etav[box].shape,) + arrays + (step,)


def local_sobolev_norm(n: Symbol, j, beta, eta=None, samples=None):
    """||eta(.) n(2^j .)||_{W^beta_2(R^d)} by discrete Fourier transform
    on [-BOX_HALFWIDTH, BOX_HALFWIDTH]^d, eta the plain partition bump
    unless given; a Nyquist tail above 1e-8 of the norm is warned about.

    n is evaluated only at the box points where eta != 0, and only the
    bounding box of those points is transformed: moving the block to the
    box's corner multiplies its transform by a phase of modulus 1, which
    |F g| does not see.  The block is transformed along axes 0..d-2 first,
    zero-padded to the box, which leaves samples^(d-1) lines of the
    block's last-axis length.  Those lines are then transformed along the
    last axis, zero-padded too, a slab of SLAB_POINTS box points at a
    time, and each slab adds its weighted density and its part of the
    edge shell to the two sums.  So the call holds the once-transformed
    block and one slab, never a samples^d spectrum or density (at d = 1
    the one line is the whole box)."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    eta = eta or make_partition("plain")
    d = n.d
    if samples is None:
        samples = box_samples(d)
    windowed = (_windowed_box if isinstance(eta, DyadicPartition)
                else _windowed_box.__wrapped__)
    block, support, pts, etav, weight, edge, step = windowed(d, samples,
                                                             beta, eta)
    g = np.zeros(block, dtype=complex)
    g.flat[support] = etav * n(pts * 2.0**j)
    if d > 1:
        g = np.fft.fftn(g, s=(samples,) * (d - 1), axes=tuple(range(d - 1)))
    lines = g.reshape(samples ** (d - 1), block[-1])
    weight = weight.reshape(lines.shape[0], samples)
    # a line lies in the edge shell when one of its axes 0..d-2 does, and
    # otherwise only its edge-shell frequencies of the last axis count
    lead = reduce(np.logical_or.outer, [edge] * (d - 1),
                  np.zeros((), bool)).ravel()
    rows = max(1, SLAB_POINTS // samples)
    total = tail = 0.0
    for lo in range(0, lines.shape[0], rows):
        density = np.abs(np.fft.fft(lines[lo:lo + rows], n=samples, axis=-1))
        density **= 2
        density *= weight[lo:lo + rows]
        sums = density.sum(axis=-1)
        total += sums.sum()
        tail += np.where(lead[lo:lo + rows], sums,
                         density[:, edge].sum(axis=-1)).sum()
    # |F g| is the FFT times step^d, squared in the density, and the sums
    # are Riemann sums over the xi lattice
    dxi = 2.0 * np.pi / (2.0 * BOX_HALFWIDTH)
    scale = step ** (2 * d) * dxi**d / (2.0 * np.pi) ** d
    nrm = float(np.sqrt(total * scale))
    if nrm > 0 and np.sqrt(tail * scale) > 1e-8 * nrm:
        warnings.warn(
            f"Sobolev norm: Nyquist tail {np.sqrt(tail * scale) / nrm:.1e} of "
            f"the norm (j={j}, beta={beta}); increase samples",
            SpectralTailWarning,
        )
    return nrm


@dataclass
class SobolevProfile:
    """Localized Sobolev norms across dyadic dilations and their supremum."""

    norms: dict = field(default_factory=dict)

    @property
    def sup_norm(self):
        return float(max(self.norms.values()))

    def flatness(self):
        vals = np.array([self.norms[j] for j in sorted(self.norms)])
        if vals.min() == 0.0:
            return float("inf")
        return float(vals.max() / vals.min())


def hormander_sup(n: Symbol, beta, j_range):
    """Profile of ||eta(.) n(2^j .)||_{W^beta_2} over j and its supremum,
    with eta the plain partition bump."""
    j_lo, j_hi = j_range
    prof = SobolevProfile()
    for j in range(int(j_lo), int(j_hi) + 1):
        prof.norms[j] = local_sobolev_norm(n, j, beta)
    return prof


_H_PROFILES = {
    "bump": (lambda mesh: make_partition("plain")(mesh), 1.0),
    "sign": (lambda mesh: np.sign(np.asarray(mesh)[..., 0]), 1.0),
    "cos": (lambda mesh: np.cos(np.asarray(mesh)[..., 0]), 1.0),
}


def potential_symbol(d, s, h_name):
    """Symbol for the mini-language family potential{s=S,h=NAME}: n = h * G_s
    built constructively from the bounded profile h, so that
    ||n||_{L^inf_s} = ||h||_inf holds by construction.

    h * G_s is tabulated on the periodized box via the Fourier side
    (F G_s = (1+|xi|^2)^{-s/2}) and interpolated multilinearly."""
    if h_name not in _H_PROFILES:
        raise ValueError(f"unknown h profile {h_name!r}; have {sorted(_H_PROFILES)}")
    h, h_sup = _H_PROFILES[h_name]
    s = float(s)
    u, _, _, xi2 = _box_geometry(d, BOX_SAMPLES)
    hv = np.asarray(h(_mesh(u, d)), dtype=complex)
    nv = np.fft.ifftn(np.fft.fftn(hv) * (1.0 + xi2) ** (-s / 2.0))
    return table_symbol([u] * d, nv, h_sup + 1e-12,
                        f"potential{{s={s},h={h_name}}}")
