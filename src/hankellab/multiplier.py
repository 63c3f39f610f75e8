"""The multiplier operator T_m = H(m Hf) and its dyadic slices.

Symbols live on the squared frequency axes: m(lambda) = n(lambda_1^2, ...,
lambda_d^2), and the dyadic pieces slice m with the radial partition in the
squared variables, m_j(lambda) = psi(2^{-j} lambda^2) m(lambda).
"""

import numpy as np

from .dyadic import DyadicPartition
from .grid import Grid, GridFunction
from .symbols import Symbol
from .transform import TransformPlan
# bound here only so the benchmark tracer can rebind it in every module
from .transform import _contract  # noqa: F401


def _symbol_values(dual_grid, n: Symbol):
    """m(lambda) = n(lambda_1^2, ..., lambda_d^2) on the dual grid: the one
    place where a symbol is sampled for the multiplier functions."""
    return n(dual_grid.squared_mesh())


def apply_multiplier(plan: TransformPlan, mvals, f: GridFunction):
    """T_m f = H(m Hf), with mvals = m(lambda) on the dual grid."""
    if np.shape(mvals) != plan.dual_grid.shape:
        raise ValueError("multiplier array does not match the dual grid")
    spec = plan.forward(f.values)
    return GridFunction(plan.grid, plan.inverse(mvals * spec))


def dyadic_symbol_values(dual_grid: Grid, mvals, psi: DyadicPartition, j):
    """m_j(lambda) = psi_j(lambda_1^2, ..., lambda_d^2) m(lambda) on the
    dual grid, from m's values mvals there, with psi_j = psi.piece(j, .)
    the j-th term of the partition.  Every dyadic slice is sampled here."""
    return psi.piece(j, dual_grid.squared_mesh()) * mvals
