import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton as bp
from biphoton.errors import ConvergenceError, InputError, RankDeficiencyError
from biphoton.polarization import SINGLET, projector


def werner(p):
    return bp.model_state(depolarization=p)


def werner_fidelity(p):
    return 1.0 - 0.75 * p


def werner_purity(p):
    return 1.0 - 1.5 * p + 0.75 * p**2


def werner_tangle(p):
    c = max(0.0, (3.0 * (1.0 - p) - 1.0) / 2.0)
    return c**2


def expected_records(state, mean_counts):
    """Noiseless oracle records: rounded Poisson means at a large scale."""
    records = []
    for a, b in bp.full_settings():
        mean = mean_counts * float(np.real(np.trace(state.rho @ projector(a, b))))
        records.append(
            bp.TomographyRecord(setting_a=a, setting_b=b, counts=round(max(mean, 0.0)))
        )
    return records


class TestModelState:
    def test_exact_singlet(self):
        state = bp.model_state(0.0, 0.0, 0.0)
        assert bp.fidelity_singlet(state) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(state.rho, np.outer(SINGLET, SINGLET.conj()), atol=1e-12)

    def test_maximally_mixed(self):
        state = bp.model_state(1.0, 0.0, 0.0)
        assert bp.fidelity_singlet(state) == pytest.approx(0.25, abs=1e-12)
        assert np.allclose(state.rho, np.eye(4) / 4.0, atol=1e-12)

    def test_werner_fidelity_closed_form(self):
        assert bp.fidelity_singlet(werner(0.04)) == pytest.approx(0.97, abs=1e-12)

    def test_range_checks(self):
        with pytest.raises(InputError):
            bp.model_state(depolarization=1.5)
        with pytest.raises(InputError):
            bp.model_state(amplitude_imbalance=-0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("phase", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_phase_error_rejected(self, phase):
        with pytest.raises(InputError, match="phase_error_rad"):
            bp.model_state(phase_error_rad=phase)

    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        imbalance=st.floats(min_value=0.0, max_value=1.0),
        phase=st.floats(min_value=-np.pi, max_value=np.pi),
    )
    @settings(max_examples=100)
    def test_always_valid_density_matrix(self, p, imbalance, phase):
        state = bp.model_state(p, imbalance, phase)
        rho = state.rho
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.linalg.eigvalsh(rho)[0] > -1e-9


class TestMetrics:
    def test_triplet_orthogonal(self):
        triplet = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        state = bp.TwoQubitState(rho=np.outer(triplet, triplet.conj()))
        assert bp.fidelity_singlet(state) == pytest.approx(0.0, abs=1e-12)

    def test_purity_endpoints(self):
        assert bp.state_purity(werner(0.0)) == pytest.approx(1.0, abs=1e-12)
        assert bp.state_purity(werner(1.0)) == pytest.approx(0.25, abs=1e-12)
        assert bp.state_purity(werner(0.04)) == pytest.approx(0.9412, abs=1e-9)

    def test_tangle_singlet_and_product(self):
        assert bp.tangle(werner(0.0)) == pytest.approx(1.0, abs=1e-9)
        product = np.zeros((4, 4), dtype=complex)
        product[1, 1] = 1.0  # |HV><HV|
        assert bp.tangle(bp.TwoQubitState(rho=product)) == pytest.approx(0.0, abs=1e-12)

    def test_werner_tangle_hand_checked(self):
        state = werner(0.1)  # singlet weight 0.9
        assert bp.concurrence(state) == pytest.approx(0.85, abs=1e-9)
        assert bp.tangle(state) == pytest.approx(0.7225, abs=1e-9)

    @given(p=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_werner_family_closed_forms(self, p):
        state = werner(p)
        assert bp.fidelity_singlet(state) == pytest.approx(werner_fidelity(p), abs=1e-9)
        assert bp.state_purity(state) == pytest.approx(werner_purity(p), abs=1e-9)
        assert bp.tangle(state) == pytest.approx(werner_tangle(p), abs=1e-9)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=100)
    def test_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        state = bp.model_state(0.1, 0.2, 0.3)
        u_a, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u_b, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.kron(u_a, u_b)
        rotated = bp.TwoQubitState(rho=u @ state.rho @ u.conj().T)
        assert bp.tangle(rotated) == pytest.approx(bp.tangle(state), abs=1e-9)
        assert bp.state_purity(rotated) == pytest.approx(bp.state_purity(state), abs=1e-9)


class TestSimulateTomography:
    def test_singlet_hh_always_zero(self):
        state = werner(0.0)
        for seed in range(5):
            records = bp.simulate_tomography(state, [("H", "H")], 10_000, seed=seed)
            assert records[0].counts == 0

    def test_singlet_hv_mean(self):
        state = werner(0.0)
        records = bp.simulate_tomography(state, [("H", "V")] * 200, 10_000, seed=3)
        counts = np.array([r.counts for r in records], dtype=float)
        assert counts.mean() == pytest.approx(5000.0, abs=5 * 5000 / np.sqrt(200))

    def test_deterministic_per_seed(self):
        state = werner(0.03)
        a = bp.simulate_tomography(state, bp.full_settings(), 5000, seed=42)
        b = bp.simulate_tomography(state, bp.full_settings(), 5000, seed=42)
        assert a == b
        c = bp.simulate_tomography(state, bp.full_settings(), 5000, seed=43)
        assert a != c

    def test_mean_counts_validated(self):
        with pytest.raises(InputError):
            bp.simulate_tomography(werner(0.0), bp.full_settings(), 0, seed=1)

    def test_record_validation(self):
        with pytest.raises(InputError):
            bp.TomographyRecord(setting_a="X", setting_b="H", counts=1)
        with pytest.raises(InputError):
            bp.TomographyRecord(setting_a="H", setting_b="V", counts=-1)


class TestReconstructMle:
    def test_noiseless_singlet_round_trip(self):
        truth = werner(0.0)
        records = expected_records(truth, mean_counts=10**6)
        recovered = bp.reconstruct_mle(records)
        assert bp.fidelity_singlet(recovered) > 0.9999
        assert bp.trace_distance(truth, recovered) < 1e-4

    def test_noiseless_werner_round_trip(self):
        truth = werner(0.04)
        recovered = bp.reconstruct_mle(expected_records(truth, mean_counts=10**6))
        assert bp.trace_distance(truth, recovered) < 1e-4

    def test_poisson_werner_recovery(self):
        truth = werner(0.04)
        errors = []
        for seed in range(20):
            records = bp.simulate_tomography(truth, bp.full_settings(), 10_000, seed=seed)
            recovered = bp.reconstruct_mle(records)
            errors.append(abs(bp.fidelity_singlet(recovered) - 0.97))
        assert np.median(errors) < 0.01

    def test_missing_circular_settings_rank_deficient(self):
        truth = werner(0.02)
        records = [
            r
            for r in expected_records(truth, mean_counts=10**4)
            if "R" not in (r.setting_a, r.setting_b) and "L" not in (r.setting_a, r.setting_b)
        ]
        with pytest.raises(RankDeficiencyError, match="R"):
            bp.reconstruct_mle(records)

    def test_analytic_gradient_matches_finite_differences(self):
        from biphoton.polarization import _TRACELESS_BASES, _Likelihood

        records = bp.simulate_tomography(werner(0.05), bp.full_settings(), 2000, seed=9)
        # 16 settings, whose projectors do not sum to a multiple of I
        records = [r for r in records if r.setting_a in "HVDR" and r.setting_b in "HVDR"]
        likelihood = _Likelihood(records)
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        sigma = a @ a.conj().T / np.real(np.trace(a @ a.conj().T))  # full rank
        _, p = likelihood(sigma)
        directions = _TRACELESS_BASES[4]
        gradient, curvature = likelihood.derivatives(p, directions)
        delta = likelihood.delta(p)

        eps = 1e-6
        for index, direction in enumerate(directions):
            up, down = likelihood(sigma + eps * direction), likelihood(sigma - eps * direction)
            numeric = (up[0] - down[0]) / (2 * eps)
            assert gradient[index] == pytest.approx(numeric, rel=1e-4, abs=1e-4)
            # R − I is the same gradient as a matrix, scaled by Σp/N
            along = np.real(np.trace(delta @ direction)) * likelihood.total / p.sum()
            assert along == pytest.approx(numeric, rel=1e-4, abs=1e-4)
            numeric_column = -(likelihood.derivatives(up[1], directions)[0]
                               - likelihood.derivatives(down[1], directions)[0]) / (2 * eps)
            np.testing.assert_allclose(curvature[:, index], numeric_column, rtol=1e-4,
                                       atol=1e-4 * np.abs(curvature).max())

    def test_round_trip_error_shrinks_with_counts(self):
        truth = bp.model_state(0.03, 0.05, 0.1)
        medians = []
        for mean_counts in (10**3, 10**4, 10**5):
            distances = []
            for seed in range(3):
                records = bp.simulate_tomography(
                    truth, bp.full_settings(), mean_counts, seed=seed
                )
                distances.append(bp.trace_distance(truth, bp.reconstruct_mle(records)))
            medians.append(np.median(distances))
        assert medians[0] > medians[1] > medians[2]

    def test_all_zero_counts_rejected(self):
        records = [
            bp.TomographyRecord(setting_a=a, setting_b=b, counts=0)
            for a, b in bp.full_settings()
        ]
        with pytest.raises(InputError):
            bp.reconstruct_mle(records)

    def test_iteration_cap_raises(self, monkeypatch):
        import biphoton.polarization as pol

        # a rank-deficient maximum, which takes the diluted steps thousands of trials
        records = bp.simulate_tomography(werner(0.01), bp.full_settings(), 10_000, seed=1)
        monkeypatch.setattr(pol, "MLE_MAX_ITERATIONS", 100)
        with pytest.raises(ConvergenceError, match=r"in 100 iterations$"):
            bp.reconstruct_mle(records)

    def test_returns_the_best_state_evaluated(self, monkeypatch):
        # a trial that lowers LL is never accepted, so no evaluated state beats the result
        import biphoton.polarization as pol

        records = bp.simulate_tomography(werner(0.028), bp.full_settings(), 10_000, seed=2)
        evaluated = []
        real_call = pol._Likelihood.__call__

        def spy(self, sigma):
            evaluated.append(real_call(self, sigma)[0])
            return real_call(self, sigma)

        monkeypatch.setattr(pol._Likelihood, "__call__", spy)
        rho = bp.reconstruct_mle(records).rho
        assert len(evaluated) > 100
        final = log_likelihood(records, rho)
        assert final >= max(evaluated) - 1e-12 * abs(final)


def lbfgsb_log_likelihood(records) -> float:
    """LL at the optimum of the L-BFGS-B solver that ``reconstruct_mle`` used before.

    ρ = TT†/Tr(TT†) over the 16 real parameters of a lower-triangular T,
    with the analytic gradient and the options of that solver.
    """
    from scipy.optimize import minimize

    projectors = np.array([projector(r.setting_a, r.setting_b) for r in records])
    counts = np.array([float(r.counts) for r in records])
    total, sum_projectors = counts.sum(), projectors.sum(axis=0)
    rows, cols = np.tril_indices(4, k=-1)

    def triangular(t):
        T = np.zeros((4, 4), dtype=complex)
        T[np.diag_indices(4)] = t[:4]
        T[rows, cols] = t[4::2] + 1j * t[5::2]
        return T

    def negative_ll_and_grad(t):
        T = triangular(t)
        A = T @ T.conj().T
        norm = float(np.real(np.trace(A)))
        rho = A / norm
        probabilities = np.clip(np.real(np.einsum("kij,ji->k", projectors, rho)), 1e-12, None)
        sum_p = probabilities.sum()
        ll = float(counts @ np.log(probabilities) - total * np.log(sum_p))
        weight = np.einsum("k,kij->ij", counts / probabilities, projectors)
        weight = weight - (total / sum_p) * sum_projectors
        G = (weight - float(np.real(np.einsum("jk,kj->", rho, weight))) * np.eye(4)) / norm
        GT = G @ T
        grad = np.concatenate([2.0 * np.real(np.diag(GT)),
                               np.ravel([2.0 * np.real(GT[rows, cols]),
                                         2.0 * np.imag(GT[rows, cols])], order="F")])
        return -ll, -grad

    t0 = np.r_[np.full(4, 0.5), np.zeros(12)]
    result = minimize(negative_ll_and_grad, t0, jac=True, method="L-BFGS-B",
                      options={"maxiter": 100_000, "gtol": 1e-8, "ftol": 1e-14})
    return -float(result.fun)


def log_likelihood(records, rho) -> float:
    counts = np.array([float(r.counts) for r in records])
    p = np.array([np.real(np.trace(projector(r.setting_a, r.setting_b) @ rho))
                  for r in records])
    seen = counts > 0
    return float(counts[seen] @ np.log(p[seen]) - counts.sum() * np.log(p.sum()))


#: every tomography case of the tier-1 suite, and the pure singlet at 10⁶ counts,
#: as (id, model_state arguments, mean counts, seed or None for noiseless records)
TIER1_TOMOGRAPHY = (
    [("noiseless-singlet", (0.0,), 10**6, None), ("noiseless-werner", (0.04,), 10**6, None),
     ("noiseless-werner-1e4", (0.04,), 10**4, None), ("cli-round-trip", (0.028,), 20_000, 11)]
    + [(f"poisson-werner-{seed}", (0.04,), 10_000, seed) for seed in range(20)]
    + [(f"acceptance-{seed}", (4.0 * 0.021 / 3.0,), 10_000, seed) for seed in range(20)]
    + [(f"knobs-{counts}-{seed}", (0.03, 0.05, 0.1), counts, seed)
       for counts in (10**3, 10**4, 10**5) for seed in range(3)]
    + [(f"pure-singlet-1e6-{seed}", (0.0,), 10**6, seed) for seed in (1, 2, 3)]
)


@pytest.mark.parametrize("knobs, mean_counts, seed", [case[1:] for case in TIER1_TOMOGRAPHY],
                         ids=[case[0] for case in TIER1_TOMOGRAPHY])
def test_likelihood_at_least_lbfgsb(knobs, mean_counts, seed):
    truth = bp.model_state(*knobs)
    if seed is None:
        records = expected_records(truth, mean_counts)
    else:
        records = bp.simulate_tomography(truth, bp.full_settings(), mean_counts, seed=seed)
    ll = log_likelihood(records, bp.reconstruct_mle(records).rho)
    reference = lbfgsb_log_likelihood(records)
    assert ll >= reference - 1e-9 * abs(reference)
