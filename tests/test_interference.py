import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton as bp
from biphoton import interference as interference_mod, jsa as jsa_mod
from biphoton.errors import AxisMismatchError, EmptyResultError, InputError, StateError
from biphoton.jsa import _gram
from conftest import (
    herald_filters, random_density_matrix, sequential_filter, sequential_herald, svd_purity,
)


def make_state(omegas, rho):
    return bp.SpectralState(omegas=omegas, density=rho)


def random_state(seed, n=24):
    rng = np.random.default_rng(seed)
    omegas = np.linspace(1.1, 1.3, n)
    return make_state(omegas, random_density_matrix(rng, n))


def pure_state(omegas, amplitudes):
    psi = amplitudes / np.linalg.norm(amplitudes)
    return make_state(omegas, np.outer(psi, psi.conj()))


class TestHeraldedSpectralState:
    def test_rank_one_is_pure(self, small_grid):
        u = np.exp(-np.linspace(-2, 2, 64) ** 2).astype(complex)
        f = np.outer(u, u)
        f /= np.sqrt(np.sum(np.abs(f) ** 2) * small_grid.cell_area)
        jsa = bp.JointAmplitude(grid=small_grid, amplitudes=f)
        state = bp.heralded_spectral_state(jsa, "signal")
        assert state.purity == pytest.approx(1.0, abs=1e-10)

    def test_paper_state_purity(self, paper_jsa):
        state = bp.heralded_spectral_state(paper_jsa, "signal")
        assert state.purity == pytest.approx(0.84, abs=0.03)
        assert state.purity == pytest.approx(svd_purity(paper_jsa), abs=1e-6)

    def test_herald_filter_matches_filtered_schmidt(self, paper_jsa, eight_nm_filter):
        state = bp.heralded_spectral_state(paper_jsa, "signal", herald_filter=eight_nm_filter)
        filtered = bp.apply_filter(paper_jsa, None, eight_nm_filter)
        assert state.purity == pytest.approx(svd_purity(filtered), abs=1e-6)

    @settings(max_examples=10)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_purity_cross_oracle_random_jsas(self, seed):
        rng = np.random.default_rng(seed)
        grid = bp.FrequencyGrid(points_per_axis=32)
        f = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        f /= np.sqrt(np.sum(np.abs(f) ** 2) * grid.cell_area)
        jsa = bp.JointAmplitude(grid=grid, amplitudes=f)
        reference = svd_purity(jsa)
        for arm in ("signal", "idler"):
            state = bp.heralded_spectral_state(jsa, arm)
            assert state.purity == pytest.approx(reference, abs=1e-6)

    @pytest.mark.parametrize("arm", ["signal", "idler"])
    def test_herald_filter_off_the_grid_rejected(self, paper_jsa, arm):
        # the herald filter is apply_filter's, with its message
        far = bp.FilterSpec(center_nm=1200.0, fwhm_nm=5.0)
        with pytest.raises(EmptyResultError, match="does not overlap the grid"):
            bp.heralded_spectral_state(paper_jsa, arm, herald_filter=far)

    def test_bad_arm(self, paper_jsa):
        with pytest.raises(InputError):
            bp.heralded_spectral_state(paper_jsa, "both")

    def test_purity_then_signal_herald_form_one_gram(self, default_config, small_grid,
                                                     monkeypatch):
        gram = bp.JointAmplitude.__dict__["gram"]
        evaluations, products = [], []
        original = gram.func
        monkeypatch.setattr(gram, "func", lambda jsa: evaluations.append(1) or original(jsa))
        # every Gram product, the cached one and a herald's own, goes through _gram
        for module in (jsa_mod, interference_mod):
            monkeypatch.setattr(module, "_gram", lambda f: products.append(1) or _gram(f))

        cfg = default_config
        jsa = bp.compute_jsa(cfg.pump, cfg.crystal, small_grid)
        bp.schmidt_decompose(jsa).purity
        bp.heralded_spectral_state(jsa, "signal")
        assert (len(evaluations), len(products)) == (1, 1)
        bp.gram_purity(jsa)
        bp.heralded_spectral_state(jsa, "signal")
        assert (len(evaluations), len(products)) == (1, 1)

    @pytest.mark.parametrize(
        "arm, herald",
        [("signal", False), ("idler", False), ("signal", True), ("idler", True)],
        ids=["signal", "idler", "herald-filter-8nm", "idler-herald-filter-8nm"],
    )
    def test_density_is_fresh_product_bit_for_bit(self, default_config, small_grid,
                                                  eight_nm_filter, arm, herald):
        cfg = default_config
        jsa = bp.compute_jsa(cfg.pump, cfg.crystal, small_grid)
        bp.schmidt_decompose(jsa).purity  # the cached Gram exists before the herald
        herald_filter = eight_nm_filter if herald else None
        f = jsa.amplitudes
        state = bp.heralded_spectral_state(jsa, arm, herald_filter=herald_filter)
        if herald:
            filters = herald_filters(arm, herald_filter)
            f = sequential_filter(jsa, *filters)
            first = bp.heralded_spectral_state(bp.apply_filter(jsa, *filters), arm)
            assert np.array_equal(state.density, first.density)
        assert np.array_equal(state.density, sequential_herald(f, arm))
        assert not np.shares_memory(state.density, jsa.gram)
        assert np.array_equal(jsa.gram, _gram(jsa.amplitudes))

    @pytest.mark.parametrize(
        "source, arm, herald",
        [("paper_jsa", "signal", False), ("paper_jsa", "idler", False),
         ("filtered_jsa", "signal", False), ("paper_jsa", "signal", True)],
        ids=["default-signal", "default-idler", "filtered-8nm", "herald-filter-8nm"],
    )
    def test_state_valid_without_eigvalsh(self, request, monkeypatch, eight_nm_filter,
                                          source, arm, herald):
        jsa = request.getfixturevalue(source)
        herald_filter = eight_nm_filter if herald else None
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(a) or eigvalsh(*a))
        state = bp.heralded_spectral_state(jsa, arm, herald_filter=herald_filter)
        assert calls == []
        rho = state.density
        assert eigvalsh(rho)[0] >= -1e-10
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        heralded = bp.apply_filter(jsa, None, herald_filter) if herald else jsa
        assert bp.hom_visibility(state, state) == pytest.approx(
            bp.gram_purity(heralded), abs=1e-12
        )


class TestHomVisibility:
    def test_identical_pure_states(self):
        omegas = np.linspace(1.0, 1.2, 16)
        state = pure_state(omegas, np.exp(-np.linspace(-2, 2, 16) ** 2))
        assert bp.hom_visibility(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_states(self):
        omegas = np.linspace(1.0, 1.2, 16)
        left = np.zeros(16)
        left[:8] = 1.0
        right = np.zeros(16)
        right[8:] = 1.0
        assert bp.hom_visibility(pure_state(omegas, left), pure_state(omegas, right)) == 0.0

    def test_paper_unfiltered(self, paper_jsa):
        state = bp.heralded_spectral_state(paper_jsa, "signal")
        visibility = bp.hom_visibility(state, state)
        assert visibility == pytest.approx(0.84, abs=0.03)
        assert visibility == pytest.approx(svd_purity(paper_jsa), abs=1e-6)

    def test_paper_filtered(self, filtered_jsa):
        state = bp.heralded_spectral_state(filtered_jsa, "signal")
        assert bp.hom_visibility(state, state) >= 0.98

    def test_mismatched_grids(self):
        a = random_state(1, n=24)
        b = random_state(2, n=16)
        with pytest.raises(AxisMismatchError):
            bp.hom_visibility(a, b)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_symmetry_and_bounds(self, seed):
        a = random_state(seed)
        b = random_state(seed + 77_000)
        v_ab = bp.hom_visibility(a, b)
        assert v_ab == bp.hom_visibility(b, a)
        assert bp.hom_visibility(a, a) == pytest.approx(a.purity, abs=1e-9)
        assert v_ab <= np.sqrt(a.purity * b.purity) + 1e-9

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_global_phase_invariance(self, seed):
        a = random_state(seed)
        b = random_state(seed + 33_000)
        phase = np.exp(1j * 0.7318)
        rotated = make_state(b.omegas, (phase * np.eye(len(b.omegas))) @ b.density
                             @ (phase * np.eye(len(b.omegas))).conj().T)
        assert abs(bp.hom_visibility(a, rotated) - bp.hom_visibility(a, b)) < 1e-12


class TestHomCurve:
    def test_zero_delay_identical_pure(self):
        omegas = np.linspace(1.0, 1.2, 32)
        state = pure_state(omegas, np.exp(-np.linspace(-2, 2, 32) ** 2))
        curve = bp.hom_curve(state, state, [0.0])
        assert curve.coincidence_probability[0] == pytest.approx(0.0, abs=1e-12)

    def test_large_delay_baseline(self):
        # broad pure state: baseline reached far beyond the coherence time
        # but below the grid revival 2*pi/d_omega
        omegas = np.linspace(1.0, 1.2, 2048)
        state = pure_state(omegas, np.ones(2048))
        revival = 2 * np.pi / (omegas[1] - omegas[0])
        curve = bp.hom_curve(state, state, [revival / 3.0, revival / 2.5])
        assert np.all(np.abs(curve.coincidence_probability - 0.5) < 1e-3)

    def test_paper_filtered_baseline(self, filtered_jsa):
        state = bp.heralded_spectral_state(filtered_jsa, "signal")
        curve = bp.hom_curve(state, state, [4000.0, 5000.0])
        assert np.all(np.abs(curve.coincidence_probability - 0.5) < 1e-3)

    def test_zero_delay_consistent_with_visibility(self, paper_jsa):
        state = bp.heralded_spectral_state(paper_jsa, "signal")
        visibility = bp.hom_visibility(state, state)
        curve = bp.hom_curve(state, state, [0.0])
        assert curve.coincidence_probability[0] == pytest.approx(
            0.5 * (1.0 - visibility), abs=1e-9
        )

    def test_against_quadrature_oracle(self, default_config, filtered_jsa, eight_nm_filter):
        # independent dense double-sum at five delays, for identical states and
        # for two unequal pairs: the same source 5 K warmer, and the idler arm
        signal = bp.heralded_spectral_state(filtered_jsa, "signal")
        cfg = default_config
        warmer = dataclasses.replace(cfg.crystal, temperature_c=cfg.crystal.temperature_c + 5.0)
        warm_jsa = bp.apply_filter(bp.compute_jsa(cfg.pump, warmer, cfg.grid),
                                   eight_nm_filter, eight_nm_filter)
        pairs = [(signal, signal), (signal, bp.heralded_spectral_state(warm_jsa, "signal")),
                 (signal, bp.heralded_spectral_state(filtered_jsa, "idler"))]
        delays = [0.0, 150.0, 300.0, 600.0, 1200.0]
        omegas = signal.omegas
        for a, b in pairs:
            curve = bp.hom_curve(a, b, delays)
            for delay, probability in zip(delays, curve.coincidence_probability):
                phases = np.exp(1j * (omegas[None, :] - omegas[:, None]) * delay)
                overlap = np.real(np.sum(a.density * b.density.T * phases))
                assert probability == pytest.approx(0.5 * (1 - overlap), abs=1e-12)
        assert bp.hom_visibility(*pairs[1]) < bp.hom_visibility(*pairs[0]) - 5e-4  # unequal

    def test_filtered_dip_width_near_filter_conjugate(self, filtered_jsa):
        state = bp.heralded_spectral_state(filtered_jsa, "signal")
        delays = np.linspace(-1500.0, 1500.0, 301)
        curve = bp.hom_curve(state, state, delays)
        probabilities = curve.coincidence_probability
        half = (0.5 + probabilities.min()) / 2.0
        below = np.flatnonzero(probabilities <= half)
        width = delays[below[-1]] - delays[below[0]]
        # Fourier conjugate of the 8 nm intensity Gaussian at 1570 nm:
        # delta_nu = c*delta_lambda/lambda^2 in 1/fs, dt*dnu = 2 ln2 / pi
        delta_nu_per_fs = 299.792458 * 8.0 / 1570.0**2
        conjugate = 2 * np.log(2) / np.pi / delta_nu_per_fs
        assert conjugate * 0.5 < width < conjugate * 2.5

    def test_delays_beyond_half_revival_rejected(self, paper_jsa):
        state = bp.heralded_spectral_state(paper_jsa, "signal")
        limit = np.pi / (state.omegas[1] - state.omegas[0])  # 2*limit is the revival period
        assert 17000.0 < limit < 18000.0
        bp.hom_curve(state, state, np.arange(-2000.0, 2001.0, 50.0))  # the CLI default
        bp.hom_curve(state, state, [-limit, limit])
        for delay in (35000.0, -1.001 * limit):
            with pytest.raises(InputError, match=f"{limit:.1f} fs"):
                bp.hom_curve(state, state, [0.0, delay])
        for delays in ([], [0.0, np.nan], [0.0, np.inf], [-np.inf]):
            with pytest.raises(InputError):
                bp.hom_curve(state, state, delays)

    def test_non_uniform_axis_rejected(self):
        state = make_state(np.geomspace(1.0, 1.2, 8), np.eye(8, dtype=complex) / 8)
        with pytest.raises(InputError, match="uniform"):
            bp.hom_curve(state, state, [0.0])

    def test_single_point_axis(self):
        state = make_state(np.array([1.2]), np.ones((1, 1), dtype=complex))
        curve = bp.hom_curve(state, state, [-50.0, 0.0, 50.0])
        assert np.array_equal(curve.coincidence_probability, np.zeros(3))

    def test_phase_blocks_bound_memory(self, default_config):
        # 20,000 delays on 128² heralds: the whole delays × (2N − 1) phase
        # array would take about 80 MB, each block of phases at most N² entries
        cfg = default_config
        jsa = bp.compute_jsa(cfg.pump, cfg.crystal, bp.FrequencyGrid(points_per_axis=128))
        a, b = (bp.heralded_spectral_state(jsa, arm) for arm in ("signal", "idler"))
        limit = np.pi / (a.omegas[1] - a.omegas[0])
        delays = np.linspace(-limit, limit, 20_000)
        tracemalloc.start()
        try:
            bp.hom_curve(a, b, delays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_curve_and_visibility_call_no_blas(self, filtered_jsa, monkeypatch):
        """``hom_curve`` and ``hom_visibility`` reach no BLAS contraction.

        BLAS splits a long contraction over its threads, so its sum would depend
        on the thread count. numpy's contraction functions raise here, and
        ``np.einsum`` fails if asked to optimize, which may hand it to BLAS. The
        ``@`` operator calls no module attribute, so this test cannot see it.
        """
        a, b = (bp.heralded_spectral_state(filtered_jsa, arm) for arm in ("signal", "idler"))
        expected = bp.hom_curve(a, b, np.linspace(-3000.0, 3000.0, 601))
        expected_visibility = bp.hom_visibility(a, b)

        def no_blas(*args, **kwargs):
            raise AssertionError("BLAS contraction called")

        for name in ("dot", "matmul", "vdot", "inner", "tensordot"):
            monkeypatch.setattr(np, name, no_blas)
        einsum = np.einsum

        def einsum_without_optimize(*args, **kwargs):
            assert not kwargs.get("optimize"), "einsum asked to optimize"
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", einsum_without_optimize)
        curve = bp.hom_curve(a, b, expected.delays_fs)
        visibility = bp.hom_visibility(a, b)
        monkeypatch.undo()
        assert np.array_equal(curve.coincidence_probability, expected.coincidence_probability)
        assert visibility == expected_visibility

    def test_curve_lengths_validated(self):
        with pytest.raises(InputError):
            bp.HomCurve(delays_fs=np.array([0.0, 1.0]), coincidence_probability=np.array([0.5]))


class TestMultipairBound:
    def test_paper_value_exact(self):
        assert bp.multipair_visibility_bound(0.0015) == 0.997

    def test_zero(self):
        assert bp.multipair_visibility_bound(0.0) == 1.0

    def test_formula(self):
        assert bp.multipair_visibility_bound(0.05) == pytest.approx(0.90, abs=1e-12)

    def test_range_checked(self):
        with pytest.raises(InputError):
            bp.multipair_visibility_bound(0.3)
        with pytest.raises(InputError):
            bp.multipair_visibility_bound(-0.001)

    def test_prediction_itemized(self):
        prediction = bp.predict_visibility(0.9996, 0.0015)
        assert prediction.multipair_bound == 0.997
        assert prediction.total == pytest.approx(0.9996 * 0.997, abs=1e-12)


DENSITY_CLASSES = {
    "SpectralState": lambda rho: bp.SpectralState(omegas=np.linspace(1.0, 1.1, 4), density=rho),
    "TwoQubitState": lambda rho: bp.TwoQubitState(rho=rho),
}


@pytest.mark.parametrize("make", list(DENSITY_CLASSES.values()), ids=list(DENSITY_CLASSES))
class TestDensityMatrixValidation:
    """Both state classes share one validator with one set of tolerances."""

    def test_accepts_valid(self, make):
        make(random_density_matrix(np.random.default_rng(5), 4))

    def test_rejects_wrong_shape(self, make):
        with pytest.raises(StateError):
            make(np.eye(3, dtype=complex) / 3)

    def test_rejects_non_hermitian(self, make):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.3
        with pytest.raises(StateError):
            make(rho)

    def test_rejects_bad_trace(self, make):
        with pytest.raises(StateError):
            make(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self, make):
        with pytest.raises(StateError):
            make(np.diag([1.2, 0.0, 0.0, -0.2]).astype(complex))

    def test_rejects_non_finite(self, make):
        one_nan = np.eye(4, dtype=complex) / 4
        one_nan[2, 2] = np.nan
        for rho in (one_nan, np.full((4, 4), np.nan, dtype=complex)):
            with pytest.raises(StateError, match="non-finite"):
                make(rho)

    def test_eigenvalue_floor_is_minus_1e_10(self, make):
        make(np.diag([0.5 + 5e-11, 0.5, 0.0, -5e-11]).astype(complex))
        with pytest.raises(StateError, match="negative eigenvalue"):
            make(np.diag([0.5 + 5e-10, 0.5, 0.0, -5e-10]).astype(complex))
