"""Klyshko heralding efficiency and multiplicative loss budgets."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DegenerateInputError, InputError


@dataclass(frozen=True)
class CountSummary:
    """Measured singles and coincidence rates (counts per second).

    ``klyshko`` takes the coincidences as given: a caller that removes
    accidentals subtracts them before building the summary.
    """

    singles_signal: float
    singles_idler: float
    coincidences: float
    integration_time_s: float = 1.0

    def __post_init__(self):
        for name in ("singles_signal", "singles_idler", "coincidences"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN-safe
                raise InputError(f"{name} must be non-negative and finite")
        if not 0.0 < self.integration_time_s < math.inf:  # NaN-safe
            raise InputError("integration_time_s must be positive and finite")
        if self.coincidences > min(self.singles_signal, self.singles_idler):
            raise InputError("coincidences exceed the smaller singles rate")


def klyshko(counts: CountSummary) -> tuple[float, float]:
    """(η_signal, η_idler) = coincidences over the other arm's singles; none at zero singles."""
    if counts.singles_signal == 0 or counts.singles_idler == 0:
        raise DegenerateInputError("Klyshko efficiency undefined for zero singles")
    return counts.coincidences / counts.singles_idler, counts.coincidences / counts.singles_signal


@dataclass(frozen=True)
class LossBudget:
    """Multiplicative transmission factors of one heralded arm.

    ``mode_overlap`` stands in for the pump/collection mode-overlap bound;
    it is user-supplied, not computed.
    """

    detector_efficiency: float = 1.0
    optics_transmission: float = 1.0
    fiber_coupling: float = 1.0
    filter_survival: float = 1.0
    mode_overlap: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value <= 1.0:
                raise InputError(f"{f.name} must be in [0, 1], got {value!r}")


def predict_heralding(budget: LossBudget) -> float:
    """Product of all budget factors, left to right in declaration order."""
    return math.prod(getattr(budget, f.name) for f in fields(budget))
