"""Exception hierarchy for the toolkit."""

from __future__ import annotations


class BiphotonError(Exception):
    """Base class for all toolkit errors."""


class InputError(BiphotonError):
    """An argument or field violates its contract."""


class WavelengthRangeError(InputError):
    """Wavelength outside a Sellmeier set's validity interval."""


class NoSolutionError(BiphotonError):
    """A solver found no root in its search window."""


class ConvergenceError(BiphotonError):
    """An iterative solver stopped without meeting its tolerance."""


class DegenerateInputError(BiphotonError):
    """The input makes the requested quantity ill posed."""


class UndefinedOrientationError(DegenerateInputError):
    """Phase-matching ridge orientation undefined (0/0)."""


class AxisMismatchError(InputError):
    """Two spectral objects do not share a grid axis."""


class EmptyResultError(BiphotonError):
    """An operation removed all spectral weight."""


class RankDeficiencyError(InputError):
    """Tomography records are not informationally complete."""


class StateError(InputError):
    """A density matrix violates Hermiticity, trace or positivity."""


class ConfigError(InputError):
    """A configuration file failed to parse or validate."""


class SearchError(BiphotonError):
    """An optimisation could not bracket an interior optimum.

    Carries the coarse scan evaluated so far in ``trace``.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
