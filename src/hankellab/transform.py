"""The modified Hankel transform, generalized translation, and convolution.

The transform is realized as one dense kernel matrix per axis (the
eigenfunction kernel is separable and symmetric in x and lambda, so the
forward and inverse maps share it), applied as successive axis contractions
after a diagonal scaling by the source grid's quadrature weights.  O(n^2)
per axis, which is fine at desk scale and keeps the accuracy fully
auditable.  A product input, one factor per axis, is transformed factor by
factor (forward_factors, inverse_factors): O(n^2) per axis in all, and no
value tensor of the grid.  Plans are immutable and shareable.

translate and convolve are the paper's operators; the identities they obey
(dilation commutation, off-diagonal decay, Young's inequality) are lemma
checks of the test suite, in tests/paper_checks.py.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import MIN_PPW, Grid, GridFunction, points_per_wavelength
from .specfun import e_kernel_axis


class AliasingWarning(UserWarning):
    """Spectrum not negligible at the dual truncation."""


class ResolutionWarning(UserWarning):
    """An axis pair below grid.MIN_PPW points per wavelength."""


@dataclass(frozen=True)
class TransformPlan:
    """Per-axis Bessel kernel matrices for one grid pair.

    fwd[k] = E_k(lambda, x), shape (dual nodes, nodes), is stored once and
    inv[k] is its transpose, a view.  forward and inverse apply the source
    grid's quadrature weights, so no caller folds weights into the kernel.
    The plan is only valid for the grid pair it was built from.
    """

    grid: Grid
    dual_grid: Grid
    fwd: tuple
    inv: tuple

    @staticmethod
    def build(grid: Grid, dual_grid: Grid | None = None):
        if dual_grid is None:
            dual_grid = grid
        if dual_grid.alpha != grid.alpha:
            raise ValueError("grid and dual grid must share alpha")
        check_resolution(grid, dual_grid)
        fwd, inv = [], []
        for ax, dax in zip(grid.axes, dual_grid.axes):
            E = e_kernel_axis(ax.alpha_k, np.outer(dax.nodes, ax.nodes))
            fwd.append(E)
            inv.append(E.T)
        return TransformPlan(grid, dual_grid, tuple(fwd), tuple(inv))

    def forward(self, values):
        """H values: grid values (axes past d are a batch) to the dual grid."""
        return _contract(self.fwd, _weighted(self.grid.weight_tensor(),
                                             values))

    def inverse(self, values):
        """H values: dual-grid values (axes past d are a batch) back to the
        grid; the same kernel with the dual grid's weights."""
        return _contract(self.inv, _weighted(self.dual_grid.weight_tensor(),
                                             values))

    def forward_factors(self, factors):
        """forward for product inputs, axis by axis: factors[k] holds the
        axis-k values along its first axis, any further axes a batch, and
        the transform's factors come back the same way.  The kernel is a
        product over the axes, so each factor takes one contraction of its
        own axis and no value tensor of the grid is formed."""
        return _factorwise(self.fwd, self.grid, factors)

    def inverse_factors(self, factors):
        """inverse for product inputs, as forward_factors."""
        return _factorwise(self.inv, self.dual_grid, factors)

    def e_dual(self, y):
        """E_y evaluated on the dual tensor grid (product over axes)."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = 1.0
        for k, dax in enumerate(self.dual_grid.axes):
            sh = [1] * self.grid.d
            sh[k] = dax.n
            out = out * e_kernel_axis(dax.alpha_k, y[k] * dax.nodes).reshape(sh)
        return out


def check_resolution(grid, dual_grid):
    """Warn ResolutionWarning for each axis pair below MIN_PPW points per
    wavelength at the bandwidth corner, judged on the full axes: a
    Grid.restrict-ed axis keeps its full node count."""
    for k, (ax, dax) in enumerate(zip(grid.axes, dual_grid.axes)):
        ppw = points_per_wavelength(min(ax.n_full, dax.n_full), ax.R, dax.R)
        if ppw < MIN_PPW:
            warnings.warn(
                f"axis {k}: ~{ppw:.1f} points per wavelength at the "
                f"bandwidth corner (R={ax.R}, Lambda={dax.R}); transform "
                "accuracy will degrade",
                ResolutionWarning,
            )


def _weighted(w, values):
    """values times the weight tensor w, broadcast over batch axes."""
    values = np.asarray(values)
    return values * w.reshape(w.shape + (1,) * (values.ndim - w.ndim))


def _factorwise(mats, grid, factors):
    """mats[k] applied to factors[k] with axis k's weights, per axis."""
    if len(factors) != grid.d:
        raise ValueError("need one factor per axis")
    return tuple(_contract((M,), _weighted(ax.quad_weights, F))
                 for M, ax, F in zip(mats, grid.axes, factors))


def _contract(mats, values):
    """Apply mats[k] along axis k of values; axes past len(mats) are a
    batch.  Complex values against real matrices are contracted as their
    interleaved float view, (real, imaginary) a last batch axis of length
    2: one real contraction, viewed back as complex, and no complex copy
    of a matrix."""
    values = np.asarray(values)
    if values.dtype.kind != "c" or any(np.iscomplexobj(M) for M in mats):
        return _contract_axes(mats, values)
    out = _contract_axes(mats, values[..., None].view(values.real.dtype))
    return out.view(np.result_type(out, np.complex64))[..., 0]


def _contract_axes(mats, values):
    out = values
    for k, M in enumerate(mats):
        out = np.moveaxis(np.tensordot(M, out, axes=([1], [k])), 0, k)
    return out


def hankel_transform(plan: TransformPlan, f: GridFunction):
    """Hf on the dual grid, computed by d one-axis kernel contractions."""
    if f.grid is not plan.grid:
        raise ValueError("function does not live on the plan's grid")
    return GridFunction(plan.dual_grid, plan.forward(f.values))


def inverse_hankel(plan: TransformPlan, g: GridFunction):
    """Identical computation with the grid roles swapped (H is self-inverse)."""
    if g.grid is not plan.dual_grid:
        raise ValueError("function does not live on the plan's dual grid")
    return GridFunction(plan.grid, plan.inverse(g.values))


def _tail_ratios(plan, spec_vals):
    """Per dual axis, the largest |spectrum| on the outermost 2% of that
    axis's nodes over the peak |spectrum|; empty for a zero spectrum."""
    mags = np.abs(spec_vals)
    peak = mags.max()
    if peak == 0.0:
        return []
    ratios = []
    for k, dax in enumerate(plan.dual_grid.axes):
        ntail = max(1, dax.n // 50)
        idx = [slice(None)] * mags.ndim
        idx[k] = slice(dax.n - ntail, dax.n)
        ratios.append(float(mags[tuple(idx)].max() / peak))
    return ratios


def _check_aliasing(plan, spec_vals, what):
    for k, ratio in enumerate(_tail_ratios(plan, spec_vals)):
        if ratio > 1e-6:
            warnings.warn(
                f"{what}: spectrum at the axis-{k} dual truncation is "
                f"{ratio:.1e} of the peak",
                AliasingWarning,
            )


def translate(plan: TransformPlan, f: GridFunction, y):
    """Generalized translation tau^y f, computed spectrally:
    transform, multiply by E_y, transform back."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (plan.grid.d,) or np.any(y <= 0):
        raise ValueError("y must lie in (0,inf)^d")
    spec = plan.forward(f.values)
    _check_aliasing(plan, spec, "translate")
    return GridFunction(plan.grid, plan.inverse(spec * plan.e_dual(y)))


def convolve(plan: TransformPlan, f: GridFunction, g: GridFunction):
    """Hankel convolution via H(f natural g) = Hf * Hg."""
    sf = plan.forward(f.values)
    sg = plan.forward(g.values)
    _check_aliasing(plan, sf, "convolve")
    _check_aliasing(plan, sg, "convolve")
    return GridFunction(plan.grid, plan.inverse(sf * sg))
