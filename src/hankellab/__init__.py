"""Numerical laboratory for the multivariate Hankel transform, the Bessel
heat semigroup, and spectral multiplier estimates on the weighted half-space.
"""

__version__ = "0.1.0"

from .specfun import MultiIndex
from .grid import (AxisGrid, Grid, GridFunction, WeightSpec, ball_measure,
                   integrate, norm)
from .transform import (TransformPlan, hankel_transform, inverse_hankel,
                        translate, convolve)
from .heat import HeatKernelEval, TimeGrid, heat_apply, heat_kernel
from .dyadic import DyadicPartition, make_partition
from .symbols import Symbol, parse_symbol
from .sobolev import SobolevProfile, hormander_sup, local_sobolev_norm
from .multiplier import apply_multiplier
from .verify import Atom, make_atom
from .report import EstimateReport, PASS, FAIL, INCONCLUSIVE

__all__ = [
    "MultiIndex", "AxisGrid", "Grid", "GridFunction", "WeightSpec",
    "ball_measure", "integrate", "norm", "TransformPlan",
    "hankel_transform", "inverse_hankel", "translate", "convolve",
    "HeatKernelEval", "TimeGrid", "heat_apply", "heat_kernel",
    "DyadicPartition", "make_partition", "Symbol", "parse_symbol",
    "SobolevProfile", "hormander_sup", "local_sobolev_norm",
    "apply_multiplier", "Atom", "make_atom", "EstimateReport", "PASS",
    "FAIL", "INCONCLUSIVE",
]
