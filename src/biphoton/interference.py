"""Two-source Hong-Ou-Mandel interference from heralded spectral states.

Heralding one arm of a joint amplitude and tracing the other leaves a
mixed single-photon spectral state ρ; the interference visibility between
two independently heralded photons is the state overlap Tr(ρ_a ρ_b), and
the coincidence dip P(τ) sums the 2N − 1 diagonals of ρ_a ∘ ρ_bᵀ, each with
its relative-delay phase.

The heralded state's N² element-wise stages (the herald filter with its
flush of sub-2⁻⁵¹¹ parts, and ρ = G / Re Tr G) run in two row halves at
once, the first on the one daemon split worker; the overlap and the
curve's sums are numpy's own loops, not BLAS, so their bits do not depend
on the thread or CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._contracts import built_valid, check_density_matrix
from .errors import AxisMismatchError, DegenerateInputError, InputError
from .jsa import FilterSpec, JointAmplitude, _gram, _real_dot, _scale_and_flush, _sum_sq
from .phasematch import _in_row_halves


@dataclass
class SpectralState:
    """Single-photon spectral density matrix on a shared frequency axis.

    The constructor checks shape, Hermiticity, unit trace and positivity
    (an O(N³) eigendecomposition); ``heralded_spectral_state`` builds its
    states valid by construction and skips that check.
    """

    omegas: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        check_density_matrix(self.density, len(self.omegas))

    @property
    def purity(self) -> float:
        return _sum_sq(self.density)


@dataclass(frozen=True)
class HomCurve:
    """Coincidence probability versus relative delay; ``hom_visibility`` gives the visibility."""

    delays_fs: np.ndarray
    coincidence_probability: np.ndarray

    def __post_init__(self):
        if len(self.delays_fs) != len(self.coincidence_probability):
            raise InputError("delays and probabilities must have equal length")


def heralded_spectral_state(
    jsa: JointAmplitude,
    heralded_arm: str = "signal",
    herald_filter: FilterSpec | None = None,
) -> SpectralState:
    """Reduced state of one arm after detecting its partner.

    ρ(ω, ω') = Σ_h f(ω, ω_h) f*(ω', ω_h) Δω_h with any herald filter
    applied to the traced arm first; Tr(ρ²) equals the Schmidt purity of
    the correspondingly filtered joint amplitude. The returned state is
    not revalidated: ρ is valid by construction.

    ρ = G / Re Tr G for the Gram G = FF†, in one pass: the herald step Δω_h
    scales G and its trace alike and cancels. The unfiltered signal arm
    divides ``jsa.gram`` into a fresh array, so a purity and a herald of one
    amplitude share one Gram product (the Gram stays cached on the
    amplitude, N²·16 bytes); the idler arm and a herald filter form their
    own with the same ``_gram``. The density never shares memory with the
    cached Gram. A herald filter scales a private copy of the amplitude and
    sets its parts below 2⁻⁵¹¹ in magnitude to +0.0, as ``apply_filter``
    does, so its Gram does no subnormal arithmetic. The scaling and flush,
    and the division by the trace, run in two row halves at once, each
    element as in one pass, so the bits do not depend on the split; the
    trace is summed whole.
    """
    if not jsa.normalized:
        raise InputError("heralded_spectral_state requires a normalized joint amplitude")
    grid = jsa.grid
    if heralded_arm == "signal":
        f = jsa.amplitudes
        herald_lam = grid.idler_wavelengths_nm
        omegas = grid.signal_omegas
    elif heralded_arm == "idler":
        f = jsa.amplitudes.T
        herald_lam = grid.signal_wavelengths_nm
        omegas = grid.idler_omegas
    else:
        raise InputError(f"heralded_arm must be 'signal' or 'idler', got {heralded_arm!r}")
    if herald_filter is not None:
        amp = np.sqrt(herald_filter.transmission(herald_lam))
        unfiltered = f
        f = np.empty(f.shape, dtype=np.result_type(f, 1.0))
        _scale_and_flush(np.multiply, unfiltered, amp, f)
    # f is the amplitude matrix itself only on the unfiltered signal arm, whose
    # FF† the amplitude caches; the density is a fresh array either way.
    gram = jsa.gram if f is jsa.amplitudes else _gram(f)
    trace = float(np.real(np.trace(gram)))
    if not trace > 0.0:  # NaN-safe
        raise DegenerateInputError("heralded state has zero or non-finite trace")
    density = np.empty(gram.shape, dtype=complex)
    _in_row_halves(lambda rows: np.divide(gram[rows], trace, out=density[rows]), len(density))
    # FF† over its real trace is Hermitian, PSD and unit-trace by construction.
    return built_valid(SpectralState, omegas=omegas, density=density)


def _check_shared_axis(a: SpectralState, b: SpectralState) -> None:
    if a.omegas.shape != b.omegas.shape or not np.array_equal(a.omegas, b.omegas):
        raise AxisMismatchError(
            "spectral states live on different grids; recompute on a shared axis "
            "(no implicit resampling)"
        )


def hom_visibility(a: SpectralState, b: SpectralState) -> float:
    """Interference visibility Tr(ρ_a ρ_b), clamped to [0, 1].

    Re Tr(ρ_a ρ_b) is summed by numpy's own loop, not BLAS, so it does not
    depend on the BLAS thread count.
    """
    _check_shared_axis(a, b)
    overlap = _real_dot(a.density, b.density)
    return min(1.0, max(0.0, overlap))


def hom_curve(a: SpectralState, b: SpectralState, delays_fs) -> HomCurve:
    """Coincidence probability P(τ) = ½[1 − Re Tr(ρ_a D ρ_b D†)], D(τ) = diag(e^{iωτ}).

    With c_o = Σ_j M[j, j + o], the 2N − 1 diagonal sums of M = ρ_a ∘ ρ_bᵀ, and
    Δω the axis's mean step, P(τ) = ½[1 − Re Σ_o c_o e^{i·o·Δω·τ}]: one N² pass,
    then O(N) per delay in blocks no larger than M, in numpy's loops, not BLAS.
    P(0) = ½(1 − Tr ρ_aρ_b) and P(τ) repeats every 2π/Δω. InputError for a step
    off Δω by over 1e-9 relative, |τ| > π/Δω (a false revival dip), a NaN or
    infinite delay and an empty list.
    """
    _check_shared_axis(a, b)
    delays = np.asarray(delays_fs, dtype=float)
    if delays.size == 0 or not np.all(np.isfinite(delays)):
        raise InputError("hom_curve needs at least one delay, and every delay finite")
    n = len(a.omegas)
    step = (a.omegas[-1] - a.omegas[0]) / max(n - 1, 1)
    if not np.all(np.abs(np.diff(a.omegas) - step) <= 1e-9 * abs(step)):
        raise InputError("hom_curve needs a frequency axis with one uniform step")
    limit = np.pi / abs(a.omegas[1] - a.omegas[0]) if n > 1 else np.inf
    if not np.all(np.abs(delays) <= limit):
        raise InputError(
            f"|delay| must not exceed pi/d_omega = {limit:.1f} fs on this grid; "
            f"P(tau) repeats every {2.0 * limit:.1f} fs"
        )
    overlap_matrix = a.density * b.density.T
    offsets = np.arange(1 - n, n)
    sums = np.array([np.trace(overlap_matrix, offset=o) for o in offsets])
    probabilities = np.empty(len(delays))
    rows = max(1, n * n // len(offsets))
    for start in range(0, len(delays), rows):
        phases = np.exp(1j * np.multiply.outer(step * delays[start:start + rows], offsets))
        probabilities[start:start + rows] = 0.5 * (1.0 - np.einsum("dj,j->d", phases, sums).real)
    return HomCurve(delays_fs=delays, coincidence_probability=probabilities)


def multipair_visibility_bound(pair_probability: float) -> float:
    """First-order multi-pair ceiling 1 − 2·p on the visibility."""
    if not 0.0 <= pair_probability < 0.25:
        raise InputError(
            f"pair probability must be in [0, 0.25), got {pair_probability!r}"
        )
    return 1.0 - 2.0 * pair_probability


@dataclass(frozen=True)
class VisibilityPrediction:
    """Itemized two-source visibility prediction."""

    spectral: float
    multipair_bound: float

    @property
    def total(self) -> float:
        return self.spectral * self.multipair_bound


def predict_visibility(
    spectral_visibility: float, pair_probability: float
) -> VisibilityPrediction:
    """Combine the spectral overlap with the multi-pair bound."""
    return VisibilityPrediction(
        spectral=spectral_visibility,
        multipair_bound=multipair_visibility_bound(pair_probability),
    )
