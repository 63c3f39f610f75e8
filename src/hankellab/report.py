"""Structured results of quantitative checks, plus small fitting helpers."""

from dataclasses import dataclass, field

import numpy as np

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class EstimateReport:
    """One lemma/condition check: inputs, measurements, fits, verdict."""

    name: str
    parameters: dict = field(default_factory=dict)
    measurements: list = field(default_factory=list)  # (descriptor, value) pairs
    fitted_constants: dict = field(default_factory=dict)
    verdict: str = INCONCLUSIVE
    provenance: str = ""

    def add(self, descriptor, value):
        self.measurements.append((str(descriptor), float(np.real(value))))

    def to_dict(self):
        """JSON-ready fields in a stable order, for reproducible artifacts;
        every value a check records is a Python scalar, string or list."""
        return {
            "name": self.name,
            "parameters": {k: self.parameters[k] for k in sorted(self.parameters)},
            "measurements": [[d, v] for d, v in self.measurements],
            "fitted_constants": {
                k: self.fitted_constants[k] for k in sorted(self.fitted_constants)
            },
            "verdict": self.verdict,
            "provenance": self.provenance,
        }


def flatness(param, values):
    """(max/min ratio, slope of value vs log param) for a positive sweep."""
    v = np.asarray(values, float)
    ratio = float(v.max() / v.min())
    slope, _ = np.polyfit(np.log(np.asarray(param, float)), v, 1)
    return ratio, float(slope)


def bounded_no_trend(param, values, slope_tol, ratio_tol):
    """'Bounded with no trend': |slope| within tol and max/min within ratio.

    The slope is measured after normalizing values by their mean so the
    tolerance is scale-free.  An all-zero sweep is bounded and flat: ratio
    1, slope 0.
    """
    v = np.asarray(values, float)
    ratio, slope = flatness(param, v / v.mean()) if v.any() else (1.0, 0.0)
    ok = abs(slope) <= slope_tol and ratio <= ratio_tol
    return ok, {"ratio": ratio, "slope": slope}
