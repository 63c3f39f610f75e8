"""The multiplier operator T_m = H(m Hf) and its dyadic slices.

Symbols live on the squared frequency axes: m(lambda) = n(lambda_1^2, ...,
lambda_d^2), and the dyadic pieces slice m with the radial partition in the
squared variables, m_j(lambda) = psi(2^{-j} lambda^2) m(lambda).  A symbol
is sampled on the dual grid in blocks of rows (_symbol_values), so that no
mesh of the whole grid is formed.
"""

import math

import numpy as np

from .dyadic import DyadicPartition
from .grid import Grid, GridFunction
from .symbols import Symbol
from .transform import TransformPlan
# bound here only so the benchmark tracer can rebind it in every module
from .transform import _contract  # noqa: F401

# _symbol_values samples the symbol on at most this many dual nodes at once
SYMBOL_BLOCK = 1 << 16


def _symbol_values(dual_grid, n: Symbol, r=1.0):
    """m(lambda / r) = n(lambda_1^2 / r^2, ..., lambda_d^2 / r^2) on the dual
    grid, as complex values, m itself at the default r = 1, bit for bit: the
    one place where a symbol is sampled for the multiplier functions.

    The symbol is called on blocks of rows (nodes of the first axis) of at
    most SYMBOL_BLOCK nodes, so that the squared mesh and the symbol's own
    temporaries are those of one block, and each call checks the sup norm
    on its block.  Every family is evaluated node by node, so the values
    are those of one call on the whole mesh, bit for bit."""
    shape = dual_grid.shape
    step = max(1, SYMBOL_BLOCK // math.prod(shape[1:]))
    out = np.empty(shape, complex)
    for lo in range(0, shape[0], step):
        rows = (slice(lo, lo + step),) + (slice(None),) * (dual_grid.d - 1)
        out[rows] = n(dual_grid.restrict(rows).squared_mesh() / (r * r))
    return out


def apply_multiplier(plan: TransformPlan, mvals, f: GridFunction):
    """T_m f = H(m Hf), with mvals = m(lambda) on the dual grid."""
    if np.shape(mvals) != plan.dual_grid.shape:
        raise ValueError("multiplier array does not match the dual grid")
    spec = plan.forward(f.values)
    return GridFunction(plan.grid, plan.inverse(mvals * spec))


def dyadic_symbol_values(dual_grid: Grid, mvals, psi: DyadicPartition, j,
                         r=1.0):
    """m_j(lambda / r) = psi_j(lambda_1^2 / r^2, ..., lambda_d^2 / r^2)
    m(lambda / r) on the dual grid, from mvals = _symbol_values(dual_grid, m,
    r), with psi_j = psi.piece(j, .) the j-th term of the partition.  Every
    dyadic slice is sampled here."""
    return psi.piece(j, dual_grid.squared_mesh() / (r * r)) * mvals
