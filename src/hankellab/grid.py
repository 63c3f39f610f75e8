"""Tensor-product discretization of X = ((0,inf)^d, x^{2 alpha} dx).

Axes are truncated to (0, R] and discretized by composite Gauss-Legendre
panels with the measure weight x^{2 alpha_k} folded into the quadrature
weights.  The layout is fixed: uniform panels, the first cut into
GRADED_PANELS geometric panels and a Gauss-Jacobi panel at 0, for
x^{2 alpha} near alpha_k = -1/2 and symbols singular at lambda = 0.  Every
plan's resolution rule, points_per_wavelength, lives here.  Grids are
immutable and cache only their weight tensor; grids compare by identity,
since a transform plan is valid only for the grids it was built from.
GridFunction operations return new containers.  No file I/O.
"""

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .specfun import MultiIndex

QUAD_SELFTEST_RTOL = 1e-10
# Gauss nodes per panel; an axis needs at least one full panel
POINTS_PER_PANEL = 16
# geometric panels, halving toward 0, in the first uniform panel
GRADED_PANELS = 9
# points per wavelength a kernel matrix needs at its corner x = R, lambda = Lam
MIN_PPW = 4.0
# the largest 2 alpha_k h / R, h the width of an axis's last panel, at which
# the axis integrates its weight x^{2 alpha_k} near R (check_weight_resolved)
MAX_WEIGHT_RATE = 36.0


@lru_cache(maxsize=None)
def _leggauss(p):
    return np.polynomial.legendre.leggauss(p)


@lru_cache(maxsize=None)
def _jacgauss(p, two_alpha):
    """p-point Gauss rule for the weight (1+t)^b on [-1, 1], b = 2 alpha, by
    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials P_n^(0,b), the weights mu_0 / sum_{n<p} q_n(t)^2 over
    their orthonormal versions q_n, with mu_0 = 2^(b+1) / (b+1)."""
    b = two_alpha
    n = np.arange(1.0, p)
    s = 2.0 * n + b
    diag = np.concatenate([[b / (b + 2.0)], b * b / (s * (s + 2.0))])
    off = 2.0 * n * (n + b) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                               + np.diag(off, -1))
    q_prev, q = np.zeros(p), np.ones(p)
    total = np.ones(p)
    for k in range(p - 1):
        q_prev, q = q, ((nodes - diag[k]) * q
                        - (off[k - 1] * q_prev if k else 0.0)) / off[k]
        total += q * q
    return nodes, 2.0 ** (b + 1.0) / (b + 1.0) / total


@lru_cache(maxsize=None)
def _gaussian_moment(alpha_k):
    """int_0^8 e^{-x^2} x^{2 alpha_k} dx = gamma(b, 64) / 2, b = alpha_k + 1/2,
    by the series gamma(b, z) = z^b e^{-z} sum_k z^k / (b (b+1) ... (b+k))
    (DLMF 8.7.1), whose terms are all positive."""
    b = alpha_k + 0.5
    term = total = 1.0 / b
    k = 0
    while term > 1e-17 * total:
        k += 1
        term *= 64.0 / (b + k)
        total += term
    with np.errstate(over="ignore"):
        return float(0.5 * np.float64(64.0) ** b * np.exp(-64.0) * total)


def axis_size(n):
    """Node count of AxisGrid.build for n: n / 16 panels, rounded half to
    even in exact arithmetic, and one uniform panel besides the graded ones."""
    panels = round(Fraction(n) / POINTS_PER_PANEL)
    return POINTS_PER_PANEL * max(panels, GRADED_PANELS + 1)


def uniform_panels(n):
    """How many uniform panels AxisGrid.build lays for n, at least 1; the
    first of them is cut into the GRADED_PANELS geometric ones."""
    return axis_size(n) // POINTS_PER_PANEL - GRADED_PANELS


def first_node(alpha_k, R, n):
    """The smallest node of AxisGrid.build(alpha_k, R, n), without building
    the axis: the smallest Gauss-Jacobi node of the panel at 0."""
    edge = R / uniform_panels(n)
    edge *= 2.0 ** -GRADED_PANELS
    jx, _ = _jacgauss(POINTS_PER_PANEL, float(2.0 * alpha_k))
    return float(edge * (jx[0] + 1.0) / 2.0)


def points_per_wavelength(nodes, R, Lam):
    """2 pi nodes / (R Lam), in Decimal: exact for any int node count."""
    return 2.0 * np.pi * float(Decimal(nodes) / (Decimal(R) * Decimal(Lam)))


def nodes_for_ppw(ppw, R, Lam):
    """points_per_wavelength's inverse: the (float) node count for ppw."""
    return Lam * R / (2.0 * np.pi) * ppw


def check_weight_resolved(alpha, n, what):
    """Raise ValueError about what unless an axis of n nodes resolves its
    weight x^{2 alpha_k} near R for every alpha_k in alpha.

    The rule is 2 alpha_k h / R <= MAX_WEIGHT_RATE, h the width of the last
    panel: R / U for U uniform panels, R / 2 when U = 1 (the last graded
    panel).  Over the last panel the weight is close to
    R^{2 alpha_k} e^{-rate s}, s in [0, 1], so the rate alone says whether
    its 16 Gauss nodes resolve it.  AxisGrid._selftest passed every axis
    up to a rate of 36.25 and failed every one from 36.3, over 1 to 18
    uniform panels and the alpha_k whose powers stay normal floats (past 18
    panels no such alpha_k reaches the rate); the first failure is at 40.15
    for U = 1 and falls with U.
    """
    rate = 2.0 * max(alpha) * float(Fraction(1, max(2, uniform_panels(n))))
    if rate > MAX_WEIGHT_RATE:
        raise ValueError(f"{what}: the last panel of an axis does not "
                         "resolve the weight x^(2 alpha) near R (2 alpha "
                         f"h / R = {rate:.3g}, above {MAX_WEIGHT_RATE:g})")


def check_normal_floats(alpha, radii, what):
    """Raise ValueError about what unless AxisGrid._selftest's powers
    R^(2 alpha_k + 1) and (R/8)^(2 alpha_k + 1) are normal floats for every
    R in radii and alpha_k in alpha; beyond them a float power overflows."""
    logs = np.multiply.outer(2.0 * np.asarray(alpha) + 1.0, np.log(radii)
                             - np.log([[1.0], [8.0]]))
    if not (np.log(np.finfo(float).tiny) <= logs.min()
            and logs.max() <= np.log(np.finfo(float).max)):
        raise ValueError(f"{what}: the axis quadrature would leave the "
                         "range of normal floats")


def axis_rule(alpha_k, R, n):
    """(nodes, weights) of AxisGrid.build(alpha_k, R, n), without building
    the axis or running its self-test."""
    base = np.linspace(0.0, R, uniform_panels(n) + 1)
    # the panel edges: the first uniform panel halved GRADED_PANELS times
    edges = np.concatenate([base[1] * 2.0 ** -np.arange(
        GRADED_PANELS, 0, -1, dtype=float), base[1:]])
    gx, gw = _leggauss(POINTS_PER_PANEL)
    a, b = edges[:-1], edges[1:]
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel() * nodes ** (2.0 * alpha_k)
    # the panel touching 0 uses Gauss-Jacobi with the weight (1+t)^{2a},
    # so the x^{2 alpha} singularity is integrated exactly
    jx, jw = _jacgauss(POINTS_PER_PANEL, float(2.0 * alpha_k))
    nodes0 = edges[0] * (jx + 1.0) / 2.0
    wts0 = (edges[0] / 2.0) ** (2.0 * alpha_k + 1.0) * jw
    return np.concatenate([nodes0, nodes]), np.concatenate([wts0, wts])


def check_weight_tensor(alpha, R, n, what):
    """Raise ValueError about what unless the largest entry of the weight
    tensor of Grid.build(alpha, R, n), the product of its axes' largest
    quadrature weights, is a normal float.  check_normal_floats judges each
    axis alone, and so misses the product leaving the normal floats, past
    whose top norm computes inf * 0 = nan and past whose bottom a ratio of
    norms divides by 0."""
    tops = [float(np.max(axis_rule(a, R, n)[1])) for a in alpha]
    log_top = sum(np.log(tops))
    if not (np.log(np.finfo(float).tiny) <= log_top
            <= np.log(np.finfo(float).max)):
        product = " x ".join(f"{t:.4g}" for t in tops)
        raise ValueError(f"{what}: the largest entry of the weight tensor, "
                         f"the product {product} of the axes' largest "
                         f"quadrature weights, is ~1e{log_top / np.log(10):.1f}"
                         ", outside the range of normal floats")


@dataclass(frozen=True, eq=False)
class AxisGrid:
    """One axis of the grid: nodes in (0, R] and weights for x^{2 alpha_k} dx.

    n_full is the node count of the full axis, which sets its resolution;
    an axis that Grid.restrict keeps a subset of inherits it.
    """

    nodes: np.ndarray
    quad_weights: np.ndarray
    R: float
    alpha_k: float
    n_full: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(
            self, "quad_weights", np.asarray(self.quad_weights, dtype=float)
        )
        if self.n_full is None:
            object.__setattr__(self, "n_full", self.nodes.size)
        self.nodes.setflags(write=False)
        self.quad_weights.setflags(write=False)

    @property
    def n(self):
        return self.nodes.size

    @staticmethod
    def build(alpha_k, R, n):
        """Composite Gauss-Legendre axis with axis_size(n) nodes on (0, R]."""
        if R <= 0 or n < POINTS_PER_PANEL:
            raise ValueError(f"need R > 0 and n >= {POINTS_PER_PANEL}")
        ax = AxisGrid(*axis_rule(alpha_k, R, n), float(R), float(alpha_k))
        ax._selftest()
        return ax

    def _selftest(self):
        # integral of 1 over (0, R] under x^{2a} dx has the closed form below
        a = self.alpha_k
        exact = self.R ** (2 * a + 1) / (2 * a + 1)
        got = self.quad_weights.sum()
        if abs(got - exact) > QUAD_SELFTEST_RTOL * abs(exact):
            raise RuntimeError(
                f"axis quadrature self-test failed: {got} vs {exact} "
                f"(alpha={a}, R={self.R})"
            )
        # truncated Gaussian moment at the scale R/8 (so the test probes a
        # feature the grid claims to resolve), exact via incomplete Gamma
        s = self.R / 8.0
        exact_g = s ** (2 * a + 1) * _gaussian_moment(a)
        got_g = np.sum(np.exp(-((self.nodes / s) ** 2)) * self.quad_weights)
        if abs(got_g - exact_g) > 1e-9 * abs(exact_g):
            raise RuntimeError("axis quadrature Gaussian self-test failed")


@dataclass(frozen=True, eq=False)
class Grid:
    """Tensor product of d AxisGrids under the product measure."""

    axes: tuple
    alpha: MultiIndex = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(
            self, "alpha", MultiIndex(tuple(ax.alpha_k for ax in self.axes)))

    @staticmethod
    def build(alpha, R, n):
        """Build a grid with the same R and n on every axis."""
        if not isinstance(alpha, MultiIndex):
            alpha = MultiIndex(tuple(np.atleast_1d(alpha)))
        return Grid(tuple(AxisGrid.build(a, R, n) for a in alpha.alpha))

    @property
    def d(self):
        return self.alpha.d

    @property
    def shape(self):
        return tuple(ax.n for ax in self.axes)

    def weight_tensor(self):
        """Product quadrature weights, shape == self.shape (cached)."""
        w = getattr(self, "_wt", None)
        if w is None:
            w = self.axes[0].quad_weights
            for ax in self.axes[1:]:
                w = np.multiply.outer(w, ax.quad_weights)
            object.__setattr__(self, "_wt", w)
        return w

    def restrict(self, keep):
        """The grid on a subset of each axis's nodes: keep[k] is a boolean
        mask, an index array or a slice of axis k.  Nodes keep their
        quadrature weights, and the axes their R, alpha and full node count
        n_full.

        The result is a quadrature rule only for functions that vanish off
        the kept nodes; sample such a function on it with
        values[np.ix_(*keep)].
        """
        if len(keep) != self.d:
            raise ValueError("need one node selection per axis")
        return Grid(tuple(
            AxisGrid(ax.nodes[k], ax.quad_weights[k], ax.R, ax.alpha_k,
                     ax.n_full)
            for ax, k in zip(self.axes, keep)))

    def meshgrid(self):
        return np.meshgrid(*(ax.nodes for ax in self.axes), indexing="ij")

    def squared_mesh(self):
        """(x_1^2, ..., x_d^2) at every tensor node, shape (*shape, d);
        built per call, since a cached copy would live as long as the grid."""
        return np.stack(self.meshgrid(), axis=-1) ** 2

    def sample(self, fn):
        """GridFunction from a callable of the d coordinate arrays."""
        return GridFunction(self, np.asarray(fn(*self.meshgrid())))


@dataclass(frozen=True)
class WeightSpec:
    """Pointwise weight w^s(x) = (1+|x|)^s and measure weight w^delta dnu."""

    s: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.s) and np.isfinite(self.delta)):
            raise ValueError("s and delta must be finite")
        if self.s < 0 or self.delta < 0:
            raise ValueError("s and delta must be >= 0")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex-valued function sampled on a tensor grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "values", v)

    def __add__(self, other):
        return GridFunction(self.grid, self.values + _vals(other))

    def __sub__(self, other):
        return GridFunction(self.grid, self.values - _vals(other))

    def __mul__(self, other):
        return GridFunction(self.grid, self.values * _vals(other))

    __rmul__ = __mul__

    def __abs__(self):
        return GridFunction(self.grid, np.abs(self.values))


def _vals(x):
    return x.values if isinstance(x, GridFunction) else x


def integrate(f: GridFunction):
    """Quadrature value of the integral of f over the truncated domain."""
    return complex(np.sum(f.values * f.grid.weight_tensor()))


def norm(f: GridFunction, p=2.0, weight: WeightSpec | None = None):
    """Weighted L^p quadrature norm; p = inf is the max over nodes.

    With weight = WeightSpec(s, delta) this is the L^p(w^delta dnu) norm of
    f * w^s, where w(x) = 1 + |x|.
    """
    g, w = np.abs(f.values, dtype=float), f.grid.weight_tensor()
    if weight is not None and (weight.s or weight.delta):
        # |x| per call, like squared_mesh: a cache would live as long as the grid
        w1 = 1.0 + np.sqrt(f.grid.squared_mesh().sum(axis=-1))
        g, w = g * w1**weight.s, w * w1**weight.delta
    top = float(np.max(g, initial=0.0))
    if np.isinf(p):
        return top
    if p < 1:
        raise ValueError("p must be >= 1")
    if top == 0.0 or not np.isfinite(top):
        return top
    # relative to the largest |f|, so that |f|^p neither underflows to 0
    # nor overflows at large p; |f| is the one new array, scaled, raised
    # and weighted in place
    g /= top
    g **= p
    g *= w
    return top * float(np.sum(g)) ** (1.0 / p)


def product_values(factors):
    """The tensor of the product function whose axis-k factor is the vector
    factors[k]."""
    return reduce(np.multiply.outer, factors)


def ball_measure(grid: Grid, center, r):
    """Quadrature measure nu(B(center, r) intersected with X).

    d = 1 uses the closed form; d >= 2 masks the tensor nodes, which is
    accurate once the ball holds many nodes.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if np.any(c <= 0):
        raise ValueError("center must lie in (0,inf)^d")
    if grid.d == 1:
        a = max(0.0, c[0] - r)
        b = min(c[0] + r, grid.axes[0].R)
        if b <= a:
            return 0.0
        e = 2.0 * grid.alpha.alpha[0] + 1.0
        return float((b**e - a**e) / e)
    rad2 = 0.0
    for k, ax in enumerate(grid.axes):
        rad2 = np.add.outer(rad2, (ax.nodes - c[k]) ** 2) if k else (ax.nodes - c[k]) ** 2
    mask = rad2 <= r * r
    return float(np.sum(grid.weight_tensor()[mask]))
