"""Two-qubit polarization state model, metrics and tomography.

The Sagnac output is modeled as a singlet-anchored two-qubit density
matrix in the |HH⟩, |HV⟩, |VH⟩, |VV⟩ basis with three imperfection knobs:
isotropic depolarization, amplitude imbalance between the two singlet
terms, and a relative phase. Tomography uses the overcomplete 36-setting
scheme (all pairs of H, V, D, A, R, L eigenstates); reconstruction is
positivity-constrained maximum likelihood over a lower-triangular
factorization ρ = TT†/Tr(TT†).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ._contracts import check_density_matrix
from .errors import ConvergenceError, InputError, RankDeficiencyError, StateError

PROJECTOR_LABELS = ("H", "V", "D", "A", "R", "L")

_SQ = 1.0 / np.sqrt(2.0)
_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_SQ, _SQ], dtype=complex),
    "A": np.array([_SQ, -_SQ], dtype=complex),
    "R": np.array([_SQ, 1j * _SQ], dtype=complex),
    "L": np.array([_SQ, -1j * _SQ], dtype=complex),
}

#: |Ψ−⟩ = (|HV⟩ − |VH⟩)/√2 in the computational ordering.
SINGLET = np.array([0.0, _SQ, -_SQ, 0.0], dtype=complex)

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass
class TwoQubitState:
    """Validated 4×4 density matrix, basis |HH⟩,|HV⟩,|VH⟩,|VV⟩."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        check_density_matrix(rho, 4)
        self.rho = rho


def model_state(
    depolarization: float = 0.0,
    amplitude_imbalance: float = 0.0,
    phase_error_rad: float = 0.0,
) -> TwoQubitState:
    """Singlet mixed with white noise, with imbalance and phase knobs.

    ρ = (1−p)|ψ⟩⟨ψ| + p·I/4 where |ψ⟩ ∝ |HV⟩ − (1−ε)e^{iφ}|VH⟩.
    """
    if not 0.0 <= depolarization <= 1.0:
        raise InputError("depolarization must be in [0, 1]")
    if not 0.0 <= amplitude_imbalance <= 1.0:
        raise InputError("amplitude_imbalance must be in [0, 1]")
    ket = np.zeros(4, dtype=complex)
    ket[1] = 1.0
    ket[2] = -(1.0 - amplitude_imbalance) * np.exp(1j * phase_error_rad)
    ket = ket / np.linalg.norm(ket)
    pure = np.outer(ket, ket.conj())
    rho = (1.0 - depolarization) * pure + depolarization * np.eye(4) / 4.0
    return TwoQubitState(rho=rho)


def fidelity_singlet(state: TwoQubitState) -> float:
    """⟨Ψ−|ρ|Ψ−⟩, real within 1e-10."""
    value = complex(SINGLET.conj() @ state.rho @ SINGLET)
    if abs(value.imag) > 1e-10:
        raise StateError(f"singlet fidelity has imaginary part {value.imag:.3e}")
    return float(value.real)


def state_purity(state: TwoQubitState) -> float:
    """Tr(ρ²)."""
    return float(np.real(np.vdot(state.rho, state.rho)))


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence from the spin-flipped spectrum.

    The spin-flipped eigenvalues λ_i are computed as singular values of
    the complex-symmetric matrix √ρᵀ·(σy⊗σy)·√ρ, which is similar to the
    textbook ρ·ρ̃ product but avoids the square-root amplification of
    rounding noise in its near-zero eigenvalues.
    """
    rho = state.rho
    vals, vecs = np.linalg.eigh(rho)
    sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    folded = sqrt_rho.T @ _SPIN_FLIP @ sqrt_rho
    lambdas = np.linalg.svd(folded, compute_uv=False)
    return float(max(0.0, lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3]))


def tangle(state: TwoQubitState) -> float:
    """Squared concurrence."""
    return concurrence(state) ** 2


@dataclass(frozen=True)
class TomographyRecord:
    """One projective setting with observed counts."""

    setting_a: str
    setting_b: str
    counts: int
    integration_time_s: float = 1.0

    def __post_init__(self):
        for label in (self.setting_a, self.setting_b):
            if label not in PROJECTOR_LABELS:
                raise InputError(
                    f"unknown projector label {label!r}; valid: {PROJECTOR_LABELS}"
                )
        if self.counts < 0:
            raise InputError("counts must be non-negative")


def full_settings() -> list[tuple[str, str]]:
    """Canonical 36-setting list, row-major over (A-side, B-side) labels."""
    return list(product(PROJECTOR_LABELS, PROJECTOR_LABELS))


def projector(setting_a: str, setting_b: str) -> np.ndarray:
    ket = np.kron(_KETS[setting_a], _KETS[setting_b])
    return np.outer(ket, ket.conj())


def simulate_tomography(
    state: TwoQubitState,
    settings,
    mean_counts_per_setting: int,
    seed: int,
) -> list[TomographyRecord]:
    """Poisson-sample counts for each setting, deterministic per seed.

    The mean for setting P is mean_counts_per_setting·Tr(ρP); no
    accidentals and no background are added or subtracted.
    """
    if mean_counts_per_setting < 1:
        raise InputError("mean_counts_per_setting must be at least 1")
    if not mean_counts_per_setting <= 9e18:  # NaN-safe; numpy's Poisson limit is ~9.2e18
        raise InputError("mean_counts_per_setting must be at most 9e18 (Poisson sampler limit)")
    rng = np.random.default_rng(seed)
    records = []
    for label_a, label_b in settings:
        probability = float(np.real(np.trace(state.rho @ projector(label_a, label_b))))
        mean = mean_counts_per_setting * max(probability, 0.0)
        records.append(
            TomographyRecord(
                setting_a=label_a,
                setting_b=label_b,
                counts=int(rng.poisson(mean)),
            )
        )
    return records


def _check_informationally_complete(records) -> None:
    rows = []
    for record in records:
        p = projector(record.setting_a, record.setting_b)
        rows.append(np.concatenate([p.real.ravel(), p.imag.ravel()]))
    rank = np.linalg.matrix_rank(np.array(rows), tol=1e-10) if rows else 0
    if rank < 16:
        present = {(r.setting_a, r.setting_b) for r in records}
        missing = [s for s in full_settings() if s not in present]
        raise RankDeficiencyError(
            f"records span rank {rank} < 16; not informationally complete. "
            f"Missing canonical settings: {missing}"
        )


def _triangular_from_params(t: np.ndarray) -> np.ndarray:
    T = np.zeros((4, 4), dtype=complex)
    T[np.diag_indices(4)] = t[:4]
    rows, cols = np.tril_indices(4, k=-1)
    T[rows, cols] = t[4::2] + 1j * t[5::2]
    return T


def _rho_from_params(t: np.ndarray) -> np.ndarray:
    T = _triangular_from_params(t)
    A = T @ T.conj().T
    return A / np.real(np.trace(A))


def reconstruct_mle(records) -> TwoQubitState:
    """Maximum-likelihood state from tomography records.

    Maximizes the Poisson likelihood over the 16 real parameters of a
    lower-triangular factorization (PSD and unit trace by construction)
    with an analytic gradient, iterating until the projected gradient
    norm drops below 1e-8 or 10⁵ iterations.

    Raises:
        RankDeficiencyError: the settings are not informationally complete.
        ConvergenceError: L-BFGS-B reports failure.
    """
    from scipy.optimize import minimize  # imported here so the CLI starts without scipy

    records = list(records)
    _check_informationally_complete(records)
    projectors = np.array([projector(r.setting_a, r.setting_b) for r in records])
    counts = np.array([float(r.counts) for r in records])
    total = counts.sum()
    if total <= 0:
        raise InputError("all-zero counts cannot constrain a state")
    sum_projectors = projectors.sum(axis=0)

    def negative_log_likelihood_and_grad(t):
        T = _triangular_from_params(t)
        A = T @ T.conj().T
        norm = float(np.real(np.trace(A)))
        rho = A / norm
        probabilities = np.real(np.einsum("kij,ji->k", projectors, rho))
        probabilities = np.clip(probabilities, 1e-12, None)
        sum_p = probabilities.sum()
        # Poisson likelihood with the rate scale profiled out:
        # LL = sum n_k ln p_k - N ln(sum_k p_k) + const
        ll = float(counts @ np.log(probabilities) - total * np.log(sum_p))
        weight_matrix = np.einsum("k,kij->ij", counts / probabilities, projectors)
        weight_matrix = weight_matrix - (total / sum_p) * sum_projectors
        # d LL = Tr(d rho · M); rho = A/Tr A
        trace_rho_m = float(np.real(np.einsum("jk,kj->", rho, weight_matrix)))
        G = (weight_matrix - trace_rho_m * np.eye(4)) / norm
        GT = G @ T
        grad = np.zeros_like(t)
        grad[:4] = 2.0 * np.real(np.diag(GT))
        rows, cols = np.tril_indices(4, k=-1)
        grad[4::2] = 2.0 * np.real(GT[rows, cols])
        grad[5::2] = 2.0 * np.imag(GT[rows, cols])
        return -ll, -grad

    t0 = np.zeros(16)
    t0[:4] = 0.5
    result = minimize(
        negative_log_likelihood_and_grad,
        t0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 100_000, "gtol": 1e-8, "ftol": 1e-14},
    )
    if not result.success:
        raise ConvergenceError(
            f"MLE did not converge after {result.nit} iterations: {result.message}"
        )
    return TwoQubitState(rho=_rho_from_params(result.x))


def trace_distance(a: TwoQubitState, b: TwoQubitState) -> float:
    """½ Σ|eig(ρ_a − ρ_b)|."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a.rho - b.rho))))
