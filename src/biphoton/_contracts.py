"""State contracts: checked once where input enters, skipped where built valid."""

import numpy as np

from .errors import StateError

_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-9
_EIGENVALUE_FLOOR = -1e-10


def check_density_matrix(rho: np.ndarray, n: int) -> None:
    """Raise StateError unless ρ is n×n, finite, Hermitian, of unit trace and PSD.

    The positivity check is an O(n³) ``eigvalsh``.
    """
    if rho.shape != (n, n):
        raise StateError(f"density matrix shape {rho.shape} does not match {n}x{n}")
    if not np.all(np.isfinite(rho)):
        raise StateError("density matrix has a non-finite entry")
    if np.max(np.abs(rho - rho.conj().T)) > _HERMITICITY_TOL:
        raise StateError("density matrix is not Hermitian")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > _TRACE_TOL:
        raise StateError(f"density matrix trace is {trace!r}, expected 1")
    smallest = float(np.linalg.eigvalsh(rho)[0])
    if smallest < _EIGENVALUE_FLOOR:
        raise StateError(f"density matrix has negative eigenvalue {smallest:.3e}")


def built_valid(cls, **values):
    """``cls(**values)`` for a dataclass, without running ``__post_init__``.

    Only for values that meet the class contract by construction; the caller
    says why next to the call. Omitted fields read their class-level defaults.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj
