"""Two-qubit polarization state model, metrics and tomography.

The Sagnac output is modeled as a singlet-anchored two-qubit density
matrix in the |HH⟩, |HV⟩, |VH⟩, |VV⟩ basis with three imperfection knobs:
isotropic depolarization, amplitude imbalance between the two singlet
terms, and a relative phase. Tomography uses the overcomplete 36-setting
scheme (all pairs of H, V, D, A, R, L eigenstates). Reconstruction is
maximum likelihood over density matrices by the diluted RρR iteration,
which keeps the state positive by construction and accepts no step that
lowers the likelihood; Newton steps on the face of the state take over
wherever they keep it positive definite. It needs numpy only.
"""

from __future__ import annotations

import math
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
    if not math.isfinite(phase_error_rad):
        raise InputError(f"phase_error_rad must be finite, got {phase_error_rad!r}")
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
        if not 0.0 < self.integration_time_s < math.inf:  # NaN-safe
            raise InputError(
                f"integration_time_s must be positive and finite, got {self.integration_time_s}"
            )


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


#: most trial steps of ``reconstruct_mle``
MLE_MAX_ITERATIONS = 100_000
#: converged when a trial moves no entry of σ further than this ...
MLE_CHANGE_TOL = 1e-10
#: ... and both max |(R − I)σ| and the top eigenvalue of R − I are at most this
MLE_STATIONARITY_TOL = 1e-8
#: eigenvalues of σ at or below this are held fixed by the Newton step
NEWTON_FACE_FLOOR = 1e-9
#: most halvings of a Newton step that leaves the positive definite matrices
NEWTON_HALVINGS = 30
#: after a failed Newton trial, the next is tried at a multiple of this many iterations
NEWTON_RETRY = 32


def _traceless_hermitian_basis(dim: int) -> np.ndarray:
    """dim² − 1 real-independent traceless Hermitian dim×dim matrices."""
    basis = []
    for i, j in product(range(dim), repeat=2):
        e = np.zeros((dim, dim), dtype=complex)
        if i == j:
            e[0, 0], e[i, i] = -1.0, 1.0
        elif i < j:
            e[i, j] = e[j, i] = 1.0
        else:
            e[i, j], e[j, i] = 1j, -1j
        basis.append(e)
    return np.array(basis[1:]).reshape(-1, dim, dim)


_TRACELESS_BASES = {dim: _traceless_hermitian_basis(dim) for dim in range(1, 5)}


class _Likelihood:
    """LL = Σ n_k ln p_k − N ln Σ p_k with p_k = Tr(P_k ρ), and its derivatives.

    P_k is the projector of setting k times its integration time, since the
    expected counts are the rate times the time. LL is the Poisson
    likelihood of the counts with the rate profiled out, so it does not
    change when ρ is scaled. It is evaluated on σ = G^½ρG^½ with
    G = Σ P_k: then p_k = Tr(Q_k σ) with Q_k = G^-½P_kG^-½ and ΣQ_k = I,
    so Σp_k = Tr σ whatever the settings are. A setting with n_k = 0 enters
    only through Σ p_k, so p_k → 0 there gives no 0/0 term.
    """

    def __init__(self, records):
        counts = np.array([float(r.counts) for r in records])
        self.total = counts.sum()
        projectors = np.array([r.integration_time_s * projector(r.setting_a, r.setting_b)
                               for r in records])
        # G is positive definite for informationally complete settings
        values, vectors = np.linalg.eigh(projectors.sum(axis=0))
        self.whiten = (vectors / np.sqrt(values)) @ vectors.conj().T  # G^-½
        # p_k = Tr(Q_k σ) = Σ_ij conj(Q_k)_ij σ_ij, as Q_k is Hermitian
        self.conj_q = (self.whiten @ projectors @ self.whiten).conj().reshape(-1, 16)
        self.seen = counts > 0
        self.counts_seen = counts[self.seen]
        self.conj_q_seen = self.conj_q[self.seen]

    def __call__(self, sigma: np.ndarray) -> tuple[float, np.ndarray]:
        """(LL, p); LL is -inf or NaN where a seen p_k is not positive."""
        p = (self.conj_q @ sigma.ravel()).real
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(self.counts_seen @ np.log(p[self.seen])
                         - self.total * np.log(p.sum())), p

    def delta(self, p: np.ndarray) -> np.ndarray:
        """R − I = (Σp/N)·∂LL/∂σ, with R = (Σp/N) Σ n_k Q_k / p_k."""
        weights = self.counts_seen / p[self.seen]
        r = (weights @ self.conj_q_seen).conj().reshape(4, 4)
        return (p.sum() / self.total) * r - np.eye(4)

    def derivatives(self, p: np.ndarray, directions: np.ndarray):
        """Gradient and negated Hessian of LL(σ + Σ x_a D_a) in x, for traceless D_a.

        Σp does not move along such directions, so only Σ n_k ln p_k counts.
        """
        along = (self.conj_q_seen @ directions.reshape(len(directions), 16).T).real
        weights = self.counts_seen / p[self.seen]
        return weights @ along, (along.T * (weights / p[self.seen])) @ along

    def state(self, sigma: np.ndarray) -> TwoQubitState:
        """ρ = G^-½σG^-½ at unit trace."""
        rho = self.whiten @ sigma @ self.whiten
        rho = rho / np.trace(rho).real
        return TwoQubitState(rho=(rho + rho.conj().T) / 2.0)


def _newton_trial(likelihood: _Likelihood, sigma: np.ndarray, p: np.ndarray):
    """σ plus the Newton step on the face of σ, or None.

    The face is the span of the eigenvectors of σ above NEWTON_FACE_FLOOR;
    the traceless step moves σ within it and leaves the smaller eigenvalues
    as they are. It is halved until σ stays positive definite.
    """
    values, vectors = np.linalg.eigh(sigma)
    face = vectors[:, values > NEWTON_FACE_FLOOR]
    directions = face @ _TRACELESS_BASES[face.shape[1]] @ face.conj().T
    if len(directions) == 0:
        return None
    gradient, curvature = likelihood.derivatives(p, directions)
    try:
        step = np.tensordot(np.linalg.solve(curvature, gradient), directions, axes=1)
    except np.linalg.LinAlgError:
        return None
    for _ in range(NEWTON_HALVINGS):
        if np.linalg.eigvalsh(sigma + step)[0] > 0.0:
            return sigma + step
        step /= 2.0
    return None


def _stationary(delta: np.ndarray, sigma: np.ndarray) -> bool:
    """Rσ ≈ σ, and R ⪯ I, so that no direction outside the support of σ raises LL."""
    return (np.abs(delta @ sigma).max() <= MLE_STATIONARITY_TOL
            and np.linalg.eigvalsh(delta)[-1] <= MLE_STATIONARITY_TOL)


def reconstruct_mle(records) -> TwoQubitState:
    """Maximum-likelihood state from tomography records.

    Maximizes LL = Σ n_k ln p_k − N ln Σ p_k over density matrices (see
    ``_Likelihood`` for σ = G^½ρG^½ and the Q_k) by the RρR iteration with
    dilution (Hradil, PRA 55, R1561 (1997); Řeháček, Hradil, Knill &
    Lvovsky, PRA 75, 042108 (2007)). With R = (Σp/N) Σ n_k Q_k / p_k the
    maximum satisfies Rσ = σ and R ⪯ I. Starting from σ = I/4, each trial
    is a diluted step σ ← (I + εΔ)σ(I + εΔ)/Tr with Δ = R − I, positive by
    construction, or, while such steps are accepted, a Newton step
    (``_newton_trial``). A trial is accepted only if LL does not fall; ε
    doubles after an accepted diluted step and halves after a rejected
    one. The run stops once a trial moves no entry of σ by more than
    MLE_CHANGE_TOL, if σ is stationary to MLE_STATIONARITY_TOL or that
    trial was a rejected diluted step (rounding hides any further gain).

    Raises:
        RankDeficiencyError: the settings are not informationally complete.
        ConvergenceError: no stationary point within MLE_MAX_ITERATIONS trials.
    """
    records = list(records)
    _check_informationally_complete(records)
    likelihood = _Likelihood(records)
    if likelihood.total <= 0:
        raise InputError("all-zero counts cannot constrain a state")

    sigma = np.eye(4, dtype=complex) / 4.0
    ll, p = likelihood(sigma)
    epsilon, try_newton, change, stalled = 1.0, True, np.inf, False
    for iteration in range(1, MLE_MAX_ITERATIONS + 1):
        delta = likelihood.delta(p)
        if change <= MLE_CHANGE_TOL and (stalled or _stationary(delta, sigma)):
            return likelihood.state(sigma)
        trial = _newton_trial(likelihood, sigma, p) if try_newton else None
        newton = trial is not None
        if not newton:
            dilute = np.eye(4) + epsilon * delta
            trial = dilute @ sigma @ dilute
            trial /= trial.trace().real
        ll_trial, p_trial = likelihood(trial)
        change = np.abs(trial - sigma).max()
        accepted = ll_trial >= ll
        if accepted:
            sigma, ll, p = trial, ll_trial, p_trial
        if newton:
            try_newton = accepted and change > MLE_CHANGE_TOL
        else:
            try_newton = iteration % NEWTON_RETRY == 0
            epsilon = epsilon * 2.0 if accepted else epsilon / 2.0
        # a rejected diluted step this close to σ: rounding hides any further gain
        stalled = not (newton or accepted)
    raise ConvergenceError(
        f"MLE did not reach a stationary point in {MLE_MAX_ITERATIONS} iterations"
    )


def trace_distance(a: TwoQubitState, b: TwoQubitState) -> float:
    """½ Σ|eig(ρ_a − ρ_b)|."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a.rho - b.rho))))
