import math
import os
import re
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton as bp
from biphoton.errors import DegenerateInputError, EmptyResultError, InputError, SearchError
from biphoton import jsa as jsa_mod
from biphoton import phasematch
from biphoton.jsa import _gram, _sum_sq, gram_purity, pump_sigma
from biphoton.phasematch import phase_mismatch, spread_sums
from biphoton.units import angular_frequency_to_nm, nm_to_angular_frequency
from conftest import (
    TINY_ROOT, herald_filters, sequential_filter, sequential_gram, sequential_herald,
    split_worker_threads, svd_coefficients, svd_purity,
)

PUMP = bp.PumpSpec(center_wavelength_nm=785.0, intensity_fwhm_bandwidth_nm=5.35)


def separable_gaussian_jsa(grid, sum_sigma, diff_sigma):
    """Synthetic Gaussian(sum)·Gaussian(difference) amplitude, unit norm.

    With matched widths the cross term cancels and the amplitude is
    factorable by construction (purity → 1).
    """
    ws, wi = grid.signal_omegas[:, None], grid.idler_omegas[None, :]
    signal = nm_to_angular_frequency(grid.center_signal_nm)
    idler = nm_to_angular_frequency(grid.center_idler_nm)
    f = np.exp(
        -((ws + wi - signal - idler) ** 2) / sum_sigma**2
        - ((ws - wi - signal + idler) ** 2) / diff_sigma**2
    ).astype(complex)
    return bp.JointAmplitude(grid=grid, amplitudes=f / np.sqrt(_sum_sq(f) * grid.cell_area))


def flat_axes(n_pump=2.0, n_signal=2.0, n_idler=2.0):
    return bp.CrystalAxes(
        pump=bp.constant_index_set("p", n_pump),
        signal=bp.constant_index_set("s", n_signal),
        idler=bp.constant_index_set("i", n_idler),
    )


class TestFrequencyGrid:
    def test_power_of_two_required(self):
        with pytest.raises(InputError):
            bp.FrequencyGrid(points_per_axis=100)
        with pytest.raises(InputError):
            bp.FrequencyGrid(points_per_axis=8)

    def test_endpoints_exact_in_nm(self):
        grid = bp.FrequencyGrid(points_per_axis=16)
        lam = grid.signal_wavelengths_nm
        assert lam[0] == pytest.approx(1630.0, abs=1e-9)
        assert lam[-1] == pytest.approx(1510.0, abs=1e-9)

    def test_uniform_in_omega(self):
        grid = bp.FrequencyGrid(points_per_axis=32)
        steps = np.diff(grid.signal_omegas)
        assert np.allclose(steps, steps[0], rtol=0, atol=1e-15)

    def test_degenerate_axes_unchanged(self):
        grid = bp.FrequencyGrid(center_signal_nm=1570.0, center_idler_nm=1570.0,
                                half_span_nm=60.0, points_per_axis=64)
        axis = np.linspace(nm_to_angular_frequency(1630.0), nm_to_angular_frequency(1510.0), 64)
        assert np.array_equal(grid.signal_omegas, axis)
        assert np.array_equal(grid.idler_omegas, axis)
        assert grid.d_omega_idler == grid.d_omega_signal == axis[1] - axis[0]

    def test_sum_omegas_are_representative_pairs(self, small_grid):
        ws, wi = small_grid.signal_omegas, small_grid.idler_omegas
        sums = small_grid.sum_omegas
        assert sums.shape == (127,)
        assert sums[0] == ws[0] + wi[0] and sums[-1] == ws[-1] + wi[-1]
        assert sums[70] == ws[63] + wi[7]
        assert np.max(np.abs(sums[np.add.outer(np.arange(64), np.arange(64))]
                             - np.add.outer(ws, wi))) <= 4e-16 * sums[-1]


class TestPumpEnvelope:
    def test_peak_at_energy_conservation(self):
        omega_p = nm_to_angular_frequency(785.0)
        assert bp.pump_envelope(omega_p / 2, omega_p / 2, PUMP) == pytest.approx(1.0)

    def test_one_sigma_detuning(self):
        omega_p = nm_to_angular_frequency(785.0)
        sigma = pump_sigma(PUMP)
        value = bp.pump_envelope(omega_p / 2 + sigma, omega_p / 2, PUMP)
        assert value == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_wavelength_domain_half_maximum(self):
        # intensity at the nm half-max points is 0.5 within 1 percent
        for lam_p in (785.0 - 5.35 / 2, 785.0 + 5.35 / 2):
            omega_sum = nm_to_angular_frequency(lam_p)
            intensity = bp.pump_envelope(omega_sum / 2, omega_sum / 2, PUMP) ** 2
            assert intensity == pytest.approx(0.5, abs=0.01 * 0.5)


class TestPhasematchingFunction:
    def test_unity_at_matched_point(self, ktp):
        period = bp.solve_poling_period(785.0, 1570.0, 1570.0, 20.0, ktp)
        crystal = bp.CrystalSpec(axes=ktp, length_mm=2.0, poling_period_um=period)
        omega = nm_to_angular_frequency(1570.0)
        value = bp.phasematching_function(omega, omega, crystal)
        assert value == pytest.approx(1.0 + 0.0j, abs=1e-9)

    def test_sinc_zero(self):
        # constant indices cancel the dispersive mismatch, leaving the
        # grating term: L*dK/2 = -pi*L/period
        crystal = bp.CrystalSpec(axes=flat_axes(), length_mm=2.0, poling_period_um=2000.0)
        omega = nm_to_angular_frequency(1570.0)
        assert abs(bp.phasematching_function(omega, omega, crystal)) < 1e-12

    def test_first_side_lobe(self):
        # oracle: maximize |sin x / x| over (pi, 2 pi) by dense scan + refinement
        xs = np.linspace(np.pi + 1e-6, 2 * np.pi, 200001)
        values = np.abs(np.sin(xs) / xs)
        best = xs[np.argmax(values)]
        assert best == pytest.approx(4.4934, abs=1e-3)
        assert values.max() == pytest.approx(0.2172, abs=1e-4)
        period = 2000.0 * np.pi / best
        crystal = bp.CrystalSpec(axes=flat_axes(), length_mm=2.0, poling_period_um=period)
        omega = nm_to_angular_frequency(1570.0)
        assert abs(bp.phasematching_function(omega, omega, crystal)) == pytest.approx(
            values.max(), abs=1e-9
        )

    def test_magnitude_bounded(self, paper_jsa, default_config):
        crystal = default_config.crystal
        grid = paper_jsa.grid
        ws, wi = np.meshgrid(grid.signal_omegas[::8], grid.idler_omegas[::8], indexing="ij")
        assert np.all(np.abs(bp.phasematching_function(ws, wi, crystal)) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("temperature", [20.0, 27.0])
    def test_one_pass_matches_sinc_times_exp(self, default_config, temperature):
        # the old two-transcendental form, evaluated here on the same x
        c = default_config.crystal
        crystal = bp.CrystalSpec(axes=c.axes, length_mm=c.length_mm,
                                 poling_period_um=c.poling_period_um, temperature_c=temperature)
        grid = bp.FrequencyGrid(points_per_axis=256)
        ws, wi = grid.signal_omegas[:, None], grid.idler_omegas[None, :]
        x = crystal.length_um * phase_mismatch(crystal, ws, wi, grid.sum_omegas) / 2.0
        expected = np.sinc(x / np.pi) * np.exp(-1j * x)
        phi = bp.phasematching_function(ws, wi, crystal, sums=grid.sum_omegas)
        assert phi.shape == (256, 256) and phi.dtype == complex
        assert np.max(np.abs(phi - expected)) <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_zero_mismatch_gives_exactly_one(self, default_config, monkeypatch):
        mismatch = np.array([[0.0, -0.0], [1e-300, 0.25]])
        monkeypatch.setattr(jsa_mod, "phase_mismatch", lambda *args: mismatch.copy())
        phi = bp.phasematching_function(None, None, default_config.crystal)
        assert phi[0, 0] == phi[0, 1] == 1 + 0j
        assert phi[1, 0].real == 1.0 and abs(phi[1, 0].imag) < 1e-290  # tiny x: sinc rounds to 1
        x = 0.25 * default_config.crystal.length_um / 2.0
        assert phi[1, 1] == pytest.approx(np.sin(x) / x * np.exp(-1j * x), abs=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_scalar_in_scalar_out(self, default_config, monkeypatch):
        omega = nm_to_angular_frequency(1570.0)
        value = bp.phasematching_function(omega, omega, default_config.crystal)
        assert isinstance(value, np.complex128) and np.ndim(value) == 0
        monkeypatch.setattr(jsa_mod, "phase_mismatch", lambda *args: np.float64(0.0))
        zero = bp.phasematching_function(omega, omega, default_config.crystal)
        assert isinstance(zero, np.complex128) and zero == 1 + 0j


class TestComputeJsa:
    def test_paper_purity(self, paper_schmidt):
        assert paper_schmidt.purity == pytest.approx(0.84, abs=0.03)

    def test_normalization(self, paper_jsa):
        assert abs(paper_jsa.total_probability() - 1.0) < 1e-9

    def test_normalized_constructor_rejects_wrong_norm(self, paper_jsa):
        # integral of |f|^2 is 1.5, then NaN: the public constructor still checks it
        for scale in (np.sqrt(1.5), np.nan):
            with pytest.raises(InputError, match="integral of"):
                bp.JointAmplitude(grid=paper_jsa.grid, amplitudes=scale * paper_jsa.amplitudes)

    @pytest.mark.parametrize("points, pump_nm", [(64, 5.35), (512, 5.35), (512, 1.0)])
    def test_result_passes_the_constructor(self, default_config, points, pump_nm):
        # every function that takes an amplitude relies on its unit norm, unchecked
        pump = bp.PumpSpec(center_wavelength_nm=785.0, intensity_fwhm_bandwidth_nm=pump_nm)
        grid = bp.FrequencyGrid(points_per_axis=points)
        jsa = bp.compute_jsa(pump, default_config.crystal, grid)
        bp.JointAmplitude(grid=jsa.grid, amplitudes=jsa.amplitudes)

    def test_internal_results_pay_one_norm_pass(self, default_config, small_grid, monkeypatch):
        calls = []
        monkeypatch.setattr(
            bp.JointAmplitude, "total_probability", lambda self: calls.append(self) or 1.0
        )
        jsa = bp.compute_jsa(default_config.pump, default_config.crystal, small_grid)
        flt = bp.FilterSpec(center_nm=1570.0, fwhm_nm=8.0)
        bp.apply_filter(jsa, flt, flt)
        assert calls == []
        bp.JointAmplitude(grid=small_grid, amplitudes=jsa.amplitudes)
        assert len(calls) == 1

    def test_grid_outside_range_fails_fast(self, default_config):
        grid = bp.FrequencyGrid(half_span_nm=500.0, points_per_axis=16)
        with pytest.raises(bp.errors.WavelengthRangeError):
            bp.compute_jsa(default_config.pump, default_config.crystal, grid)

    def test_synthetic_separable_high_purity(self):
        grid = bp.FrequencyGrid(points_per_axis=128, half_span_nm=40.0)
        jsa = separable_gaussian_jsa(grid, sum_sigma=0.01, diff_sigma=0.01)
        assert bp.schmidt_decompose(jsa).purity > 0.99

    def test_swap_symmetry_for_identical_axes(self):
        registry = bp.builtin_registry()
        axes = bp.CrystalAxes(
            pump=registry.get("ktp_y"),
            signal=registry.get("ktp_z"),
            idler=registry.get("ktp_z"),
        )
        period = bp.solve_poling_period(785.0, 1570.0, 1570.0, 20.0, axes)
        crystal = bp.CrystalSpec(axes=axes, length_mm=2.0, poling_period_um=period)
        grid = bp.FrequencyGrid(points_per_axis=64)
        jsa = bp.compute_jsa(PUMP, crystal, grid)
        assert np.max(np.abs(jsa.amplitudes - jsa.amplitudes.T)) < 1e-12

    @pytest.mark.parametrize("temperature", [20.0, 27.0])
    def test_axes_broadcast_equals_meshgrid(self, default_config, small_grid, temperature):
        # 27 C runs the thermal index and poling-expansion path
        c = default_config.crystal
        crystal = bp.CrystalSpec(axes=c.axes, length_mm=c.length_mm,
                                 poling_period_um=c.poling_period_um, temperature_c=temperature)
        grid = small_grid
        ws, wi = np.meshgrid(grid.signal_omegas, grid.idler_omegas, indexing="ij")
        f = bp.pump_envelope(ws, wi, default_config.pump) * bp.phasematching_function(
            ws, wi, crystal
        )
        expected = f / np.sqrt(np.sum(np.abs(f) ** 2) * grid.cell_area)
        jsa = bp.compute_jsa(default_config.pump, crystal, grid)
        # α and k_p are taken at one representative pair per sum frequency
        assert np.max(np.abs(jsa.amplitudes - expected)) <= 2e-11 * np.max(np.abs(expected))

    def test_pump_terms_equal_along_anti_diagonals(self, ktp, small_grid):
        n = small_grid.points_per_axis
        alpha = jsa_mod._joint(PUMP, np.ones((n, n), complex), small_grid).amplitudes
        assert np.array_equal(alpha[1:, :-1], alpha[:-1, 1:])
        # zero-index signal and idler sets leave k_p as the mismatch's only term
        axes = bp.CrystalAxes(pump=ktp.pump, signal=bp.constant_index_set("s", 0.0),
                              idler=bp.constant_index_set("i", 0.0))
        crystal = bp.CrystalSpec(axes=axes, length_mm=2.0, poling_period_um=0.43)
        f = bp.compute_jsa(PUMP, crystal, small_grid).amplitudes
        assert np.array_equal(f[1:, :-1], f[:-1, 1:])


class TestNonDegenerateGrid:
    """A 1550 nm signal with its energy-conserving idler near 1590 nm."""

    LAMBDA_I = 1.0 / (1.0 / 785.0 - 1.0 / 1550.0)

    @pytest.fixture(scope="class")
    def grid(self):
        return bp.FrequencyGrid(center_signal_nm=1550.0, center_idler_nm=self.LAMBDA_I,
                                half_span_nm=40.0, points_per_axis=64)

    @pytest.fixture(scope="class")
    def crystal(self, ktp):
        period = bp.solve_poling_period(785.0, 1550.0, self.LAMBDA_I, 20.0, ktp)
        return bp.CrystalSpec(axes=ktp, length_mm=2.0, poling_period_um=period)

    def test_idler_axis_shares_signal_step(self, grid):
        ws, wi = grid.signal_omegas, grid.idler_omegas
        shift = nm_to_angular_frequency(self.LAMBDA_I) - nm_to_angular_frequency(1550.0)
        assert np.allclose(wi - ws, shift, rtol=0, atol=1e-15)
        assert grid.d_omega_idler == grid.d_omega_signal
        assert np.allclose(np.diff(wi), grid.d_omega_signal, rtol=0, atol=1e-15)
        assert grid.cell_area == grid.d_omega_signal**2

    def test_jsa_matches_brute_force(self, grid, crystal):
        ws, wi = np.meshgrid(grid.signal_omegas, grid.idler_omegas, indexing="ij")
        f = bp.pump_envelope(ws, wi, PUMP) * bp.phasematching_function(ws, wi, crystal)
        expected = f / np.sqrt(np.sum(np.abs(f) ** 2) * grid.cell_area)
        jsa = bp.compute_jsa(PUMP, crystal, grid)
        assert np.max(np.abs(jsa.amplitudes - expected)) <= 2e-11 * np.max(np.abs(expected))
        # the ridge runs through the grid, not off its edge
        peak = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
        assert all(8 < i < 56 for i in peak)

    def test_gram_purity_matches_svd(self, grid, crystal):
        jsa = bp.compute_jsa(PUMP, crystal, grid)
        assert abs(gram_purity(jsa) - svd_purity(jsa)) < 1e-12


class TestGramPurity:
    def test_matches_schmidt_purity(self, default_config, paper_jsa, filtered_jsa):
        grid = bp.FrequencyGrid(points_per_axis=128, half_span_nm=40.0)
        separable = separable_gaussian_jsa(grid, sum_sigma=0.01, diff_sigma=0.01)
        narrow_pump = bp.PumpSpec(center_wavelength_nm=785.0, intensity_fwhm_bandwidth_nm=0.05)
        entangled = bp.compute_jsa(
            narrow_pump, default_config.crystal, bp.FrequencyGrid(points_per_axis=128)
        )
        for jsa in (paper_jsa, filtered_jsa, separable, entangled):
            assert abs(gram_purity(jsa) - svd_purity(jsa)) < 1e-12
            leading = bp.schmidt_decompose(jsa).coefficients[:8]
            assert np.max(np.abs(leading - svd_coefficients(jsa)[:8])) < 1e-12
            assert bp.schmidt_decompose(jsa).purity == gram_purity(jsa)
            assert bp.SchmidtSpectrum(amplitudes=jsa.amplitudes).purity == gram_purity(jsa)
        assert gram_purity(separable) > 0.99
        assert bp.schmidt_decompose(entangled).schmidt_number > 10.0

    def test_all_zero_rejected(self, small_grid):
        # no JointAmplitude holds zero weight; the Gram purity of a raw zero matrix fails
        zeros = np.zeros((64, 64), complex)
        with pytest.raises(InputError, match="normalized"):
            bp.JointAmplitude(grid=small_grid, amplitudes=zeros)
        with pytest.raises(DegenerateInputError):
            jsa_mod._gram_purity(zeros, _gram(zeros))

    def test_cached_intensity_is_read_only(self, paper_jsa):
        intensity = paper_jsa.intensity
        assert intensity is paper_jsa.intensity
        assert np.array_equal(intensity, np.abs(paper_jsa.amplitudes) ** 2)
        with pytest.raises(ValueError):
            intensity[0, 0] = 0.0

    def test_cached_gram_is_read_only_and_amplitude_frozen(self, default_config, small_grid):
        cfg = default_config
        jsa = bp.compute_jsa(cfg.pump, cfg.crystal, small_grid)
        assert jsa.gram is jsa.gram
        assert np.array_equal(jsa.gram, _gram(jsa.amplitudes))
        with pytest.raises(ValueError):
            jsa.gram[0, 0] = 0.0
        with pytest.raises(FrozenInstanceError):
            jsa.amplitudes = 2.0 * jsa.amplitudes


    @pytest.mark.parametrize("layout", ["paper", "random", "transposed", "wide"])
    def test_real_arithmetic_gram_matches_complex_product(self, paper_jsa, layout):
        rng = np.random.default_rng(7)
        f = {
            "paper": paper_jsa.amplitudes,
            "random": rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96)),
            "transposed": paper_jsa.amplitudes.T,
            "wide": rng.normal(size=(40, 72)) + 1j * rng.normal(size=(40, 72)),
        }[layout]
        gram = _gram(f)
        assert np.max(np.abs(gram - f @ f.conj().T)) <= 1e-15 * np.sum(np.abs(f) ** 2)
        assert np.array_equal(gram, gram.conj().T)
        # the two products formed at once give the bits of the two formed in turn
        assert np.array_equal(gram, sequential_gram(f))
        out = np.empty_like(gram)
        assert _gram(f, out=out) is out
        assert np.array_equal(out, gram)


def off_main_thread(monkeypatch, action, names=("matmul",)):
    """Replace each numpy function in ``names`` by one that first runs ``action()`` off the
    main thread. Returns the list to which each such call appends "start" before
    ``action()`` and "end" once the numpy function has returned."""
    calls = []
    for name in names:
        original = getattr(np, name)

        def patched(*args, original=original, **kwargs):
            if threading.current_thread() is threading.main_thread():
                return original(*args, **kwargs)
            calls.append("start")
            action()
            result = original(*args, **kwargs)
            calls.append("end")
            return result

        monkeypatch.setattr(np, name, patched)
    return calls


def assert_worker_done(calls):
    """The worker ran at least one patched call, and every one it began has returned."""
    assert calls and calls.count("start") == calls.count("end"), calls


class TestThreadedGram:
    @pytest.mark.parametrize(
        "call", ["_gram", "gram_purity", "heralded_spectral_state", "optimize_pump_bandwidth"]
    )
    def test_no_thread_outlives_the_call(self, default_config, monkeypatch, call):
        # the worker's product sleeps first, so a caller that did not wait for
        # the worker returns while its product is unfinished
        calls = off_main_thread(monkeypatch, lambda: time.sleep(0.02))
        grid = bp.FrequencyGrid(points_per_axis=64)
        jsa = bp.compute_jsa(default_config.pump, default_config.crystal, grid)
        herald_filter = bp.FilterSpec(center_nm=1570.0, fwhm_nm=8.0)
        run = {
            "_gram": lambda: _gram(jsa.amplitudes),
            "gram_purity": lambda: gram_purity(jsa),
            "heralded_spectral_state": lambda: [
                bp.heralded_spectral_state(jsa, arm, herald_filter=flt)
                for arm in ("signal", "idler") for flt in (None, herald_filter)
            ],
            "optimize_pump_bandwidth": lambda: bp.optimize_pump_bandwidth(
                default_config.crystal, 785.0, (2.0, 12.0), grid
            ),
        }[call]
        threads = split_worker_threads()
        result = run()
        assert_worker_done(calls)
        assert threading.active_count() == threads
        if call == "_gram":
            assert np.array_equal(result, sequential_gram(jsa.amplitudes))

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        class WorkerError(Exception):
            pass

        def fail():
            raise WorkerError("worker product failed")

        off_main_thread(monkeypatch, fail)
        f = np.random.default_rng(5).normal(size=(32, 64)).view(complex)
        threads = split_worker_threads()
        with pytest.raises(WorkerError, match="worker product failed"):
            _gram(f)
        assert threading.active_count() == threads

    def test_one_worker_serves_every_split(self):
        f = np.random.default_rng(6).normal(size=(16, 32)).view(complex)
        _gram(f)
        threads = threading.active_count()
        for _ in range(49):
            _gram(f)
        assert threading.active_count() == threads

    def test_worker_keeps_no_reference_to_its_job(self):
        for fail in (False, True):
            first, second = np.zeros(8), np.zeros(8)
            alive = weakref.ref(first)

            def work(a):
                a.fill(1.0)
                if fail and a is not second:
                    raise ValueError("first half failed")

            if fail:
                with pytest.raises(ValueError, match="first half failed"):
                    phasematch._in_two(work, first, second)
            else:
                phasematch._in_two(work, first, second)
            assert first[0] == second[0] == 1.0
            del first, work
            assert alive() is None, fail

    def test_next_split_after_a_worker_error_runs_on_the_worker(self):
        ran_on = []

        def work(half):
            if half == "first":
                ran_on.append(threading.current_thread())
                if len(ran_on) == 1:
                    raise ValueError("first half failed")

        with pytest.raises(ValueError, match="first half failed"):
            phasematch._in_two(work, "first", "second")
        phasematch._in_two(work, "first", "second")
        assert ran_on[0] is ran_on[1] is not threading.current_thread()

    def test_split_made_on_the_worker_runs_there_in_turn(self):
        ran_on = {}

        def inner(half):
            ran_on[half] = threading.current_thread()

        def outer(half):
            if half == "first":
                phasematch._in_two(inner, "inner first", "inner second")

        caller = threading.Thread(target=phasematch._in_two, args=(outer, "first", "second"),
                                  daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert ran_on["inner first"] is ran_on["inner second"] is not caller

    def test_callers_at_once_get_the_sequential_bits(self):
        # a caller whose split finds the worker busy with another's runs both
        # halves in turn; none may wait on another
        rng = np.random.default_rng(7)
        amplitudes = [rng.normal(size=(48, 96)).view(complex) for _ in range(3)]
        expected = [sequential_gram(f) for f in amplitudes]
        mismatches = []

        def caller(k):
            for _ in range(40):
                if not np.array_equal(_gram(amplitudes[k]), expected[k]):
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(k,), daemon=True) for k in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_worker(self, default_config):
        split_worker_threads()
        pid = os.fork()
        if pid == 0:  # the child: any failure, or a hang, fails the test
            status = 1
            try:
                jsa = bp.compute_jsa(default_config.pump, default_config.crystal,
                                     bp.FrequencyGrid(points_per_axis=64))
                gram = _gram(jsa.amplitudes)
                status = 0 if np.array_equal(gram, sequential_gram(jsa.amplitudes)) else 2
            finally:
                os._exit(status)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish within 60 s")
        assert os.waitstatus_to_exitcode(status) == 0


def sequential_jsa(pump, crystal, grid):
    """Reference f: every N² stage of ``compute_jsa`` in one pass, on one thread."""
    nm = angular_frequency_to_nm
    axes, t = crystal.axes, crystal.temperature_c
    dk0 = (
        spread_sums(bp.wavenumber(axes.pump, nm(grid.sum_omegas), t))
        - bp.wavenumber(axes.signal, nm(grid.signal_omegas[:, None]), t)
        - bp.wavenumber(axes.idler, nm(grid.idler_omegas[None, :]), t)
    )
    grating = 2.0 * np.pi / crystal.expanded_poling_period_um
    x = dk0 + grating if np.min(dk0) < 0.0 else dk0 - grating
    x *= crystal.length_um / 2.0
    phi = np.empty(x.shape, dtype=complex)
    np.cos(x, out=phi.real)
    sinc = np.sin(x)
    np.negative(sinc, out=phi.imag)
    zero = x == 0.0
    sinc[zero] = x[zero] = 1.0
    sinc /= x
    phi.real *= sinc
    phi.imag *= sinc
    f = spread_sums(jsa_mod._envelope(grid.sum_omegas, pump)) * phi
    f /= math.sqrt(_sum_sq(f) * grid.cell_area)
    return f


FILTER_8NM = bp.FilterSpec(center_nm=1570.0, fwhm_nm=8.0)
#: narrow enough that the filtered amplitude has parts below 2⁻⁵¹¹ on every grid here
FILTER_2_81NM = bp.FilterSpec(center_nm=1570.0, fwhm_nm=2.81)
#: one JSA, filter and herald each, the stages split into row halves
ROW_HALF_CALLS = {
    "compute_jsa": lambda cfg, jsa: bp.compute_jsa(cfg.pump, cfg.crystal, jsa.grid),
    "apply_filter": lambda cfg, jsa: bp.apply_filter(jsa, FILTER_8NM, FILTER_8NM),
    "heralded_spectral_state": lambda cfg, jsa: bp.heralded_spectral_state(
        jsa, "idler", herald_filter=FILTER_8NM
    ),
}


class TestRowHalves:
    """The N² stages split into two row halves give the bits of one pass, on one thread."""

    @pytest.fixture(scope="class", params=[64, 1024], ids=["64", "1024"])
    def grids(self, request):
        n = request.param
        return [
            bp.FrequencyGrid(points_per_axis=n),
            bp.FrequencyGrid(points_per_axis=n, center_signal_nm=1550.0, center_idler_nm=1590.0),
        ]

    def test_compute_jsa_matches_one_pass(self, default_config, grids):
        cfg = default_config
        for grid in grids:
            jsa = bp.compute_jsa(cfg.pump, cfg.crystal, grid)
            assert np.array_equal(jsa.amplitudes, sequential_jsa(cfg.pump, cfg.crystal, grid))

    def test_joint_into_buffer_matches_one_pass(self, default_config, grids):
        # the amplitudes optimize_pump_bandwidth writes into its one buffer per width
        cfg, grid = default_config, grids[0]
        phi = jsa_mod._crystal_factor(cfg.crystal, grid)
        out = np.empty_like(phi)
        for fwhm in (2.0, 5.35, 12.0):
            pump = bp.PumpSpec(center_wavelength_nm=785.0, intensity_fwhm_bandwidth_nm=fwhm)
            assert jsa_mod._joint(pump, phi, grid, out=out).amplitudes is out
            assert np.array_equal(out, sequential_jsa(pump, cfg.crystal, grid))

    def test_apply_filter_matches_one_pass(self, default_config, grids):
        cfg, grid = default_config, grids[0]
        jsa = bp.compute_jsa(cfg.pump, cfg.crystal, grid)
        for amplitude, signal_filter, idler_filter in (
            (jsa, FILTER_8NM, FILTER_8NM),
            (jsa, FILTER_8NM, None),
            (jsa, None, FILTER_8NM),
            (jsa, None, None),
            (jsa, FILTER_2_81NM, FILTER_2_81NM),
        ):
            filtered = bp.apply_filter(amplitude, signal_filter, idler_filter)
            assert np.array_equal(
                filtered.amplitudes, sequential_filter(amplitude, signal_filter, idler_filter)
            )
        # the 2.81 nm case flushes parts in both row halves
        v = sequential_filter(jsa, FILTER_2_81NM, FILTER_2_81NM, flush=False).view(np.float64)
        flushed = (v != 0.0) & (np.abs(v) < TINY_ROOT)
        assert np.any(flushed[: len(v) // 2]) and np.any(flushed[len(v) // 2:])

    def test_heralded_state_matches_one_pass(self, default_config, grids):
        cfg, grid = default_config, grids[0]
        jsa = bp.compute_jsa(cfg.pump, cfg.crystal, grid)
        filtered = bp.apply_filter(jsa, FILTER_2_81NM, FILTER_2_81NM)
        for amplitude, arm, herald_filter in (
            (jsa, "signal", None),
            (jsa, "idler", None),
            (jsa, "signal", FILTER_8NM),
            (jsa, "idler", FILTER_8NM),
            (jsa, "signal", FILTER_2_81NM),
            (jsa, "idler", FILTER_2_81NM),
            (filtered, "signal", FILTER_2_81NM),
        ):
            state = bp.heralded_spectral_state(amplitude, arm, herald_filter=herald_filter)
            f = amplitude.amplitudes
            if herald_filter is not None:
                # a herald filter is apply_filter on the traced arm, bit for bit
                filters = herald_filters(arm, herald_filter)
                f = sequential_filter(amplitude, *filters)
                first = bp.heralded_spectral_state(bp.apply_filter(amplitude, *filters), arm)
                assert np.array_equal(state.density, first.density)
            assert np.array_equal(state.density, sequential_herald(f, arm))

    @pytest.mark.parametrize("call", sorted(ROW_HALF_CALLS))
    def test_no_thread_outlives_the_call(self, default_config, paper_jsa, monkeypatch, call):
        # every stage's last step divides; the worker's division sleeps first,
        # so a caller that did not wait for the worker returns mid-division
        calls = off_main_thread(monkeypatch, lambda: time.sleep(0.02), names=["divide"])
        threads = split_worker_threads()
        ROW_HALF_CALLS[call](default_config, paper_jsa)
        assert_worker_done(calls)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("call", sorted(ROW_HALF_CALLS))
    def test_worker_error_reaches_the_caller(self, default_config, paper_jsa, monkeypatch, call):
        class WorkerError(Exception):
            pass

        def fail():
            raise WorkerError("worker half failed")

        off_main_thread(monkeypatch, fail, names=["multiply", "divide"])
        threads = split_worker_threads()
        with pytest.raises(WorkerError, match="worker half failed"):
            ROW_HALF_CALLS[call](default_config, paper_jsa)
        assert threading.active_count() == threads

    def test_worker_half_keeps_the_callers_errstate(self, default_config, monkeypatch):
        # x = inf in one row only: cos(inf) is invalid in that row's half alone
        for row in (0, 3):
            mismatch = np.full((4, 4), 1e-3)
            mismatch[row, 1] = np.inf
            monkeypatch.setattr(jsa_mod, "phase_mismatch", lambda *args, m=mismatch: m.copy())
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
                bp.phasematching_function(None, None, default_config.crystal)

    @pytest.mark.parametrize("half", ["worker", "caller"])
    def test_sign_change_inside_one_half_is_rejected(self, default_config, monkeypatch, half):
        # dk0[j, k] = −k_s[j]: negative on every row but two of one half, so
        # that half alone holds both signs
        n = 64
        k_s = np.full((n, 1), 2.0e-3)
        rows = slice(10, 12) if half == "worker" else slice(n - 12, n - 10)
        k_s[rows] = [[-1.0e-3], [-3.0e-3]]

        def wavenumber(sset, wavelength_nm, temperature_c):
            shape = np.shape(wavelength_nm)
            return k_s.copy() if shape == (n, 1) else np.zeros(shape)

        monkeypatch.setattr(bp.phasematch, "wavenumber", wavenumber)
        dk0 = -k_s
        message = (
            f"unpoled mismatch changes sign within one call ({np.min(dk0):.3e} to "
            f"{np.max(dk0):.3e} rad/um); the compensating grating order is ambiguous"
        )
        assert "-2.000e-03 to 3.000e-03" in message
        cfg = default_config
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            bp.compute_jsa(cfg.pump, cfg.crystal, bp.FrequencyGrid(points_per_axis=n))

    def test_traced_functions_run_on_the_main_thread(self, default_config, paper_jsa, monkeypatch):
        # the benchmark's layer tracer keeps one span stack per process, so no
        # public function it times may run on a worker
        calls = []

        def on_main_thread(func):
            def guarded(*args, **kwargs):
                assert threading.current_thread() is threading.main_thread(), func.__name__
                calls.append(func.__name__)
                return func(*args, **kwargs)

            return guarded

        originals = {
            id(func): func
            for func in (bp.dispersion.wavenumber, bp.phasematch.unpoled_mismatch,
                         bp.phasematch.phase_mismatch, jsa_mod.pump_envelope)
        }
        for module_name, module in list(sys.modules.items()):
            if module_name == "biphoton" or module_name.startswith("biphoton."):
                for attr, value in list(vars(module).items()):
                    if id(value) in originals and originals[id(value)] is value:
                        monkeypatch.setattr(module, attr, on_main_thread(value))
        for call in ROW_HALF_CALLS.values():
            call(default_config, paper_jsa)
        assert {"wavenumber", "unpoled_mismatch", "phase_mismatch"} <= set(calls)


class TestSumSq:
    @pytest.mark.parametrize("layout", ["paper", "random", "transposed"])
    def test_matches_sum_of_abs_squared(self, paper_jsa, layout):
        rng = np.random.default_rng(11)
        f = {
            "paper": paper_jsa.amplitudes,
            "random": rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256)),
            "transposed": paper_jsa.amplitudes.T,
        }[layout]
        expected = np.sum(np.abs(f) ** 2)
        assert abs(_sum_sq(f) - expected) <= 1e-15 * expected

    def test_strided_input_sums_its_contiguous_copy(self, paper_jsa):
        f = paper_jsa.amplitudes[::3, 1::2]
        assert _sum_sq(f) == _sum_sq(np.ascontiguousarray(f))

    @pytest.mark.parametrize("bad, expected", [(np.nan, np.nan), (np.inf, np.inf),
                                               (complex(0.0, -np.inf), np.inf)])
    def test_non_finite_propagates(self, small_grid, bad, expected):
        f = separable_gaussian_jsa(small_grid, 0.01, 0.01).amplitudes.copy()
        f[3, 5] = bad
        np.testing.assert_equal(_sum_sq(f), expected)
        np.testing.assert_equal(_sum_sq(f.T), expected)

    def test_same_sum_at_any_blas_thread_count(self):
        # A BLAS ddot splits long vectors over its threads; the normalized
        # amplitudes (and so the CSVs) must not depend on the thread count.
        code = ("import numpy as np; from biphoton.jsa import _sum_sq; "
                "f = np.random.default_rng(3).normal(size=(1024, 2048)).view(complex); "
                "print(repr(_sum_sq(f)))")
        src = str(Path(bp.__file__).resolve().parents[1])
        sums = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p)}
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
            sums.add(proc.stdout.strip())
        assert len(sums) == 1


def test_separable_gaussian_underflow_rejected(small_grid):
    # widths far below the grid spacing: the Gaussian is zero at every point,
    # and the public constructor rejects the 0/0 amplitude
    with np.errstate(invalid="ignore"), pytest.raises(InputError, match="normalized"):
        separable_gaussian_jsa(small_grid, sum_sigma=1e-7, diff_sigma=1e-7)


class TestApplyFilter:
    def test_identity_filter(self, paper_jsa):
        # rectangular pass-band far wider than the grid transmits exactly 1
        broad = bp.FilterSpec(center_nm=1570.0, fwhm_nm=100000.0, shape="rectangular")
        filtered = bp.apply_filter(paper_jsa, broad, broad)
        assert np.array_equal(filtered.amplitudes, paper_jsa.amplitudes)
        assert filtered.survival.total == pytest.approx(1.0, abs=1e-12)
        # the per-arm paths used by the CLI and config keep the contract too
        for arms in ((broad, None), (None, broad)):
            one_arm = bp.apply_filter(paper_jsa, *arms)
            assert np.array_equal(one_arm.amplitudes, paper_jsa.amplitudes)
            assert one_arm.survival.total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("arms", ["signal", "idler", "both"])
    @pytest.mark.parametrize("fwhm", [30.0, 8.0, 3.0, 2.0])
    def test_result_passes_the_constructor(self, paper_jsa, arms, fwhm):
        # every function that takes an amplitude relies on its unit norm, unchecked
        spec = bp.FilterSpec(center_nm=1570.0, fwhm_nm=fwhm)
        filtered = bp.apply_filter(paper_jsa, spec if arms != "idler" else None,
                                   spec if arms != "signal" else None)
        bp.JointAmplitude(grid=filtered.grid, amplitudes=filtered.amplitudes)

    def test_near_identity_gaussian(self, paper_jsa):
        broad = bp.FilterSpec(center_nm=1570.0, fwhm_nm=100000.0)
        filtered = bp.apply_filter(paper_jsa, broad, broad)
        assert np.allclose(filtered.amplitudes, paper_jsa.amplitudes, rtol=1e-6, atol=0)
        assert filtered.survival.total == pytest.approx(1.0, abs=1e-6)

    def test_eight_nm_filter_purity_and_survival(self, filtered_jsa):
        assert bp.schmidt_decompose(filtered_jsa).purity >= 0.98
        assert filtered_jsa.survival.signal == pytest.approx(0.5, abs=0.15)
        assert filtered_jsa.survival.idler == pytest.approx(0.5, abs=0.15)

    def test_survivals_match_filtered_products(self, paper_jsa):
        f = paper_jsa.amplitudes
        grid = paper_jsa.grid
        sig = bp.FilterSpec(center_nm=1568.0, fwhm_nm=8.0)
        idl = bp.FilterSpec(center_nm=1573.0, fwhm_nm=5.0, shape="rectangular")
        amp_s = np.sqrt(sig.transmission(grid.signal_wavelengths_nm))[:, None]
        amp_i = np.sqrt(idl.transmission(grid.idler_wavelengths_nm))[None, :]
        base = np.sum(np.abs(f) ** 2)
        filtered = bp.apply_filter(paper_jsa, sig, idl)
        survival = filtered.survival
        assert survival.signal == pytest.approx(np.sum(np.abs(f * amp_s) ** 2) / base, rel=1e-13)
        assert survival.idler == pytest.approx(np.sum(np.abs(f * amp_i) ** 2) / base, rel=1e-13)
        assert survival.total == pytest.approx(
            np.sum(np.abs(f * amp_s * amp_i) ** 2) / base, rel=1e-13)

    @pytest.mark.parametrize("arms", ["signal", "idler", "both"])
    def test_input_amplitudes_untouched(self, default_config, small_grid, arms):
        # the output is filtered and normalized in place in its own copy
        jsa = bp.compute_jsa(default_config.pump, default_config.crystal, small_grid)
        before = jsa.amplitudes.copy()
        spec = bp.FilterSpec(center_nm=1570.0, fwhm_nm=8.0)
        filtered = bp.apply_filter(jsa, spec if arms != "idler" else None,
                                   spec if arms != "signal" else None)
        assert np.array_equal(jsa.amplitudes, before)
        assert not np.shares_memory(filtered.amplitudes, jsa.amplitudes)

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_zero_or_nan_weight_rejected(self, small_grid, fill):
        # such an amplitude never reaches apply_filter: the constructor rejects it
        with pytest.raises(InputError, match="normalized"):
            bp.JointAmplitude(grid=small_grid, amplitudes=np.full((64, 64), fill, complex))

    def test_filter_outside_grid(self, paper_jsa):
        far = bp.FilterSpec(center_nm=1200.0, fwhm_nm=5.0, shape="rectangular")
        with pytest.raises(EmptyResultError):
            bp.apply_filter(paper_jsa, far, None)

    @pytest.mark.parametrize(
        "arm, spec, message",
        [
            ("signal", bp.FilterSpec(center_nm=1200.0, fwhm_nm=5.0),
             "filter pass-band does not overlap the grid"),
            ("idler", bp.FilterSpec(center_nm=1650.0, fwhm_nm=1.0, shape="rectangular"),
             "filter pass-band does not overlap the grid"),
            # the nearest default-grid point lies 0.062 nm from 1570 nm
            ("signal", bp.FilterSpec(center_nm=1570.0, fwhm_nm=1e-3),
             "signal filter transmits nothing at any grid point: its FWHM of 0.001 nm is "
             "far below the grid step of 0.2352 nm at its 1570.0 nm centre"),
            ("idler", bp.FilterSpec(center_nm=1570.0, fwhm_nm=0.01, shape="rectangular"),
             "idler filter transmits nothing at any grid point: its FWHM of 0.01 nm is "
             "far below the grid step of 0.2352 nm at its 1570.0 nm centre"),
            # just inside the grid's 1630 nm end
            ("signal", bp.FilterSpec(center_nm=1630.0 - 1e-9, fwhm_nm=1e-12),
             "signal filter transmits nothing at any grid point: its FWHM of 1e-12 nm is "
             "far below the grid step of 0.2535 nm at its 1629.999999999 nm centre"),
        ],
        ids=["off-grid", "off-grid-idler", "narrow", "narrow-idler", "narrow-at-end"],
    )
    def test_empty_filter_message_names_the_cause(self, paper_jsa, arm, spec, message):
        filters = (spec, None) if arm == "signal" else (None, spec)
        with pytest.raises(EmptyResultError) as caught:
            bp.apply_filter(paper_jsa, *filters)
        assert str(caught.value) == message

    def test_filtering_monotone_for_narrow_gaussians(self, paper_jsa, paper_schmidt):
        base = paper_schmidt.purity
        for width in (6.0, 8.0, 10.0):
            spec = bp.FilterSpec(center_nm=1570.0, fwhm_nm=width)
            filtered = bp.apply_filter(paper_jsa, spec, spec)
            assert bp.schmidt_decompose(filtered).purity >= base

    def test_rectangular_shape(self):
        spec = bp.FilterSpec(center_nm=1570.0, fwhm_nm=10.0, shape="rectangular",
                             peak_transmission=0.8)
        lam = np.array([1560.0, 1566.0, 1570.0, 1574.9, 1580.0])
        assert np.allclose(spec.transmission(lam), [0.0, 0.8, 0.8, 0.8, 0.0])

    def test_renormalized(self, filtered_jsa):
        assert abs(filtered_jsa.total_probability() - 1.0) < 1e-9


class TestTinyFlush:
    """Filtered parts below 2⁻⁵¹¹ become +0.0, so no Gram product is subnormal."""

    def test_threshold_is_strict_and_keeps_non_finite(self):
        below = np.nextafter(TINY_ROOT, 0.0)
        parts = np.array([TINY_ROOT, -TINY_ROOT, below, -below, 5e-324, -0.0, 0.0,
                          np.nan, np.inf, -np.inf, 1.0, -1e-200, 1e-150])
        out = parts[None, :].copy()
        jsa_mod._divide_and_flush(out, 1.0)
        expected = np.where(np.abs(parts) < TINY_ROOT, 0.0, parts)
        assert np.array_equal(out[0], expected, equal_nan=True)
        assert not np.any(np.signbit(out[0][expected == 0.0]))  # +0.0, not −0.0

    @pytest.mark.parametrize("fwhm", [2.0, 2.81, 3.94])
    def test_narrow_filters_flush_and_keep_their_figures(self, paper_jsa, monkeypatch, fwhm):
        spec = bp.FilterSpec(center_nm=1570.0, fwhm_nm=fwhm)
        filtered = bp.apply_filter(paper_jsa, spec, spec)
        v = filtered.amplitudes.view(np.float64)
        assert not np.any((v != 0.0) & (np.abs(v) < TINY_ROOT))
        # the unflushed reference: a zero threshold flushes nothing
        with monkeypatch.context() as patch:
            patch.setattr(jsa_mod, "_FLUSH_BELOW", 0.0)
            unflushed = bp.apply_filter(paper_jsa, spec, spec)
        reference = sequential_filter(paper_jsa, spec, spec, flush=False)
        assert np.array_equal(unflushed.amplitudes, reference)
        assert np.any(reference.view(np.float64)[np.abs(v) == 0.0])  # the case flushes
        assert filtered.survival == unflushed.survival
        purity = jsa_mod._gram_purity(reference, _gram(reference))
        assert bp.schmidt_decompose(filtered).purity == purity

    @pytest.mark.parametrize("filters", ["8nm", "none"])
    def test_wide_or_no_filter_flushes_nothing(self, paper_jsa, filters):
        spec = FILTER_8NM if filters == "8nm" else None
        filtered = bp.apply_filter(paper_jsa, spec, spec)
        assert np.array_equal(filtered.amplitudes,
                              sequential_filter(paper_jsa, spec, spec, flush=False))


class TestSchmidtDecompose:
    def test_rank_one(self, small_grid):
        u = np.exp(-np.linspace(-3, 3, 64) ** 2).astype(complex)
        f = np.outer(u, u)
        f /= np.sqrt(np.sum(np.abs(f) ** 2) * small_grid.cell_area)
        spectrum = bp.schmidt_decompose(bp.JointAmplitude(grid=small_grid, amplitudes=f))
        assert spectrum.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(spectrum.coefficients >= 0.0)  # the Gram's zero eigenvalues are clipped
        assert spectrum.purity == pytest.approx(1.0, abs=1e-12)

    def test_two_equal_modes(self, small_grid):
        f = np.zeros((64, 64), dtype=complex)
        f[0, 0] = 1.0
        f[1, 1] = 1.0
        f /= np.sqrt(np.sum(np.abs(f) ** 2) * small_grid.cell_area)
        spectrum = bp.schmidt_decompose(bp.JointAmplitude(grid=small_grid, amplitudes=f))
        assert np.allclose(spectrum.coefficients[:2], [0.5, 0.5], atol=1e-12)
        assert spectrum.purity == pytest.approx(0.5, abs=1e-12)
        assert spectrum.schmidt_number == pytest.approx(2.0, abs=1e-9)

    def test_all_zero_rejected(self, small_grid):
        # no JointAmplitude holds zero weight; a raw zero matrix has no Schmidt spectrum
        zeros = np.zeros((64, 64), dtype=complex)
        with pytest.raises(InputError, match="normalized"):
            bp.JointAmplitude(grid=small_grid, amplitudes=zeros)
        with pytest.raises(DegenerateInputError):
            bp.SchmidtSpectrum(amplitudes=zeros)

    def test_eigvalsh_runs_only_when_coefficients_read(self, paper_jsa, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        spectrum = bp.schmidt_decompose(paper_jsa)
        assert spectrum.purity * spectrum.schmidt_number == pytest.approx(1.0, abs=1e-12)
        assert calls == []
        first = spectrum.coefficients
        assert spectrum.coefficients is first
        assert len(calls) == 1 and calls[0] is paper_jsa.gram

    def test_coefficients_unaffected_by_later_amplitude_mutation(self, default_config, small_grid):
        cfg = default_config
        jsa = bp.compute_jsa(cfg.pump, cfg.crystal, small_grid)
        fresh = bp.SchmidtSpectrum(amplitudes=jsa.amplitudes.copy()).coefficients
        spectrum = bp.schmidt_decompose(jsa)
        assert not any(value is jsa.amplitudes for value in vars(spectrum).values())
        jsa.amplitudes[...] = 0.0
        assert np.array_equal(spectrum.coefficients, fresh)

    def test_constructor_derives_purity(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        spectrum = bp.SchmidtSpectrum(amplitudes=f)
        assert spectrum.purity == pytest.approx(np.sum(spectrum.coefficients**2), abs=1e-12)
        assert not any(np.shares_memory(value, f) for value in vars(spectrum).values()
                       if isinstance(value, np.ndarray))
        with pytest.raises(TypeError):
            bp.SchmidtSpectrum(amplitudes=f, purity=7.0)

    @pytest.mark.parametrize(
        "amplitudes, error",
        [(np.zeros((8, 8), complex), DegenerateInputError),
         (np.full((8, 8), np.nan, complex), DegenerateInputError),
         (np.ones(8, complex), InputError)],
        ids=["all-zero", "nan", "one-dimensional"],
    )
    def test_constructor_rejects_bad_amplitudes(self, amplitudes, error):
        with pytest.raises(error):
            bp.SchmidtSpectrum(amplitudes=amplitudes)

    def test_purity_schmidt_number_inverse(self, paper_schmidt):
        assert paper_schmidt.purity * paper_schmidt.schmidt_number == pytest.approx(
            1.0, abs=1e-9
        )

    def test_coefficients_sum_to_one_descending(self, paper_schmidt):
        c = paper_schmidt.coefficients
        assert abs(c.sum() - 1.0) < 1e-9
        assert np.all(np.diff(c) <= 1e-15)


class TestMarginals:
    def test_paper_fwhm(self, paper_jsa):
        for arm in ("signal", "idler"):
            marginal = bp.marginal_spectrum(paper_jsa, arm)
            assert marginal.fwhm_nm == pytest.approx(15.0, abs=2.0)
            assert marginal.intensity.sum() == pytest.approx(1.0, abs=1e-9)

    def test_central_lobe_support(self, paper_jsa):
        marginal = bp.marginal_spectrum(paper_jsa, "signal")
        assert bp.support_span(marginal, fraction=0.05) == pytest.approx(35.0, abs=5.0)

    def test_rectangular_jsa_fwhm(self, small_grid):
        lam = small_grid.signal_wavelengths_nm
        width = 30.0
        inside = np.abs(lam - 1570.0) <= width / 2
        f = np.outer(inside.astype(complex), inside.astype(complex))
        f /= np.sqrt(np.sum(np.abs(f) ** 2) * small_grid.cell_area)
        marginal = bp.marginal_spectrum(bp.JointAmplitude(grid=small_grid, amplitudes=f),
                                        "signal")
        step = np.max(np.abs(np.diff(small_grid.signal_wavelengths_nm)))
        assert marginal.fwhm_nm == pytest.approx(width, abs=step)

    def test_bad_arm(self, paper_jsa):
        with pytest.raises(InputError):
            bp.marginal_spectrum(paper_jsa, "herald")


def count_calls(monkeypatch, name: str) -> list:
    """Record every call the jsa module makes to its function ``name`` from now on."""
    calls = []
    original = getattr(jsa_mod, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(jsa_mod, name, counted)
    return calls


class TestOptimizePumpBandwidth:
    def test_paper_optimum(self, default_config):
        grid = bp.FrequencyGrid(points_per_axis=256)
        best, purity = bp.optimize_pump_bandwidth(
            default_config.crystal, 785.0, (2.0, 12.0), grid
        )
        assert best == pytest.approx(5.35, abs=0.8)
        assert purity == pytest.approx(0.84, abs=0.03)

    def test_argmax_beats_endpoints(self, default_config):
        grid = bp.FrequencyGrid(points_per_axis=128)
        best, purity = bp.optimize_pump_bandwidth(
            default_config.crystal, 785.0, (2.0, 12.0), grid
        )

        def purity_at(fwhm):
            pump = bp.PumpSpec(center_wavelength_nm=785.0, intensity_fwhm_bandwidth_nm=fwhm)
            return bp.schmidt_decompose(
                bp.compute_jsa(pump, default_config.crystal, grid)
            ).purity

        assert purity >= purity_at(2.0)
        assert purity >= purity_at(12.0)

    def test_longer_crystal_narrower_pump(self, default_config, ktp):
        grid = bp.FrequencyGrid(points_per_axis=128)
        long_crystal = bp.CrystalSpec(
            axes=ktp, length_mm=4.0, poling_period_um=default_config.crystal.poling_period_um
        )
        best_short, _ = bp.optimize_pump_bandwidth(default_config.crystal, 785.0, (1.0, 12.0), grid)
        best_long, _ = bp.optimize_pump_bandwidth(long_crystal, 785.0, (1.0, 12.0), grid)
        # coarse-scan oracle confirms the trend
        def coarse_argmax(crystal):
            widths = np.linspace(1.0, 12.0, 12)
            purities = []
            for w in widths:
                pump = bp.PumpSpec(center_wavelength_nm=785.0, intensity_fwhm_bandwidth_nm=w)
                purities.append(
                    bp.schmidt_decompose(bp.compute_jsa(pump, crystal, grid)).purity
                )
            return widths[int(np.argmax(purities))]

        assert best_long < best_short
        assert coarse_argmax(long_crystal) < coarse_argmax(default_config.crystal)

    def test_crystal_factor_computed_once(self, default_config, monkeypatch):
        grid = bp.FrequencyGrid(points_per_axis=128)
        calls = count_calls(monkeypatch, "phasematching_function")
        best, purity = bp.optimize_pump_bandwidth(
            default_config.crystal, 785.0, (2.0, 12.0), grid
        )
        assert len(calls) == 1
        monkeypatch.undo()
        pump = bp.PumpSpec(center_wavelength_nm=785.0, intensity_fwhm_bandwidth_nm=best)
        assert abs(purity - svd_purity(bp.compute_jsa(pump, default_config.crystal, grid))) < 1e-12

    def test_window_without_interior_maximum(self, default_config, monkeypatch):
        grid = bp.FrequencyGrid(points_per_axis=128)
        grams = count_calls(monkeypatch, "_gram")
        with pytest.raises(SearchError) as excinfo:
            bp.optimize_pump_bandwidth(default_config.crystal, 785.0, (0.2, 2.0), grid)
        assert len(excinfo.value.trace) == 5
        assert len(grams) == 5

    def test_gram_budget(self, default_config, monkeypatch):
        # five coarse widths, then Brent's method: 11 or 12 Gram products, not
        # the 19 a golden-section search from the coarse bracket takes
        grid = bp.FrequencyGrid(points_per_axis=128)
        grams = count_calls(monkeypatch, "_gram")
        bp.optimize_pump_bandwidth(default_config.crystal, 785.0, (2.0, 12.0), grid)
        assert len(grams) <= 12

    # the default window and two jittered as in the benchmark; (1.98, 11.96)
    # takes 12 Gram products, the others 11
    @pytest.mark.parametrize("window", [(2.0, 12.0), (1.9284, 11.9124), (1.98, 11.96)])
    def test_matches_scipy_bounded_search(self, default_config, window):
        from scipy.optimize import minimize_scalar

        grid = bp.FrequencyGrid(points_per_axis=128)
        tol = 0.02

        def purity_at(fwhm):
            pump = bp.PumpSpec(center_wavelength_nm=785.0, intensity_fwhm_bandwidth_nm=fwhm)
            return bp.schmidt_decompose(bp.compute_jsa(pump, default_config.crystal, grid)).purity

        coarse = np.linspace(*window, 5)
        coarse_purities = [purity_at(w) for w in coarse]
        k = int(np.argmax(coarse_purities))
        reference = minimize_scalar(lambda w: -purity_at(w), method="bounded",
                                    bounds=(coarse[k - 1], coarse[k + 1]),
                                    options={"xatol": tol})
        best, purity = bp.optimize_pump_bandwidth(
            default_config.crystal, 785.0, window, grid, tolerance_nm=tol
        )
        assert abs(best - reference.x) <= 2 * tol
        assert purity >= max(coarse_purities)
        assert abs(purity - purity_at(best)) < 1e-12

    @pytest.mark.parametrize("window, tolerance", [
        ((2.0, 12.0), 0.0),
        ((2.0, 12.0), -0.01),
        ((2.0, 12.0), np.nan),
        ((2.0, 12.0), np.inf),
        ((2.0, np.inf), 0.02),
        ((np.nan, 12.0), 0.02),
        ((0.0, 12.0), 0.02),
        ((12.0, 2.0), 0.02),
    ])
    def test_bad_window_or_tolerance_rejected_first(self, default_config, monkeypatch,
                                                    window, tolerance):
        def crystal_factor(*args, **kwargs):
            raise AssertionError("crystal factor computed before the input check")

        monkeypatch.setattr(jsa_mod, "_crystal_factor", crystal_factor)
        with pytest.raises(InputError, match="search window|tolerance_nm"):
            bp.optimize_pump_bandwidth(default_config.crystal, 785.0, window,
                                       bp.FrequencyGrid(points_per_axis=32),
                                       tolerance_nm=tolerance)

    def test_non_positive_tolerance_returns(self):
        # a tolerance of zero or below can never meet the stopping rule, so
        # the search runs unpatched in a child that a timeout can end
        code = ("import biphoton as bp\n"
                "from biphoton.errors import InputError\n"
                "cfg = bp.default_config()\n"
                "grid = bp.FrequencyGrid(points_per_axis=32)\n"
                "for tol in (0.0, -0.01):\n"
                "    try:\n"
                "        bp.optimize_pump_bandwidth(cfg.crystal, 785.0, (2.0, 12.0), grid,\n"
                "                                   tolerance_nm=tol)\n"
                "    except InputError:\n"
                "        print('rejected')\n")
        src = str(Path(bp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert proc.stdout.split() == ["rejected", "rejected"]


class TestInvariantsProperty:
    @given(
        points=st.sampled_from([16, 32]),
        bandwidth=st.floats(min_value=2.0, max_value=10.0),
        length=st.floats(min_value=0.5, max_value=6.0),
        half_span=st.floats(min_value=20.0, max_value=80.0),
    )
    @settings(max_examples=100)
    def test_normalization_and_schmidt_sum(self, points, bandwidth, length, half_span):
        axes = bp.ktp_axes()
        pump = bp.PumpSpec(center_wavelength_nm=785.0, intensity_fwhm_bandwidth_nm=bandwidth)
        period = bp.solve_poling_period(785.0, 1570.0, 1570.0, 20.0, axes)
        crystal = bp.CrystalSpec(axes=axes, length_mm=length, poling_period_um=period)
        grid = bp.FrequencyGrid(points_per_axis=points, half_span_nm=half_span)
        jsa = bp.compute_jsa(pump, crystal, grid)
        assert abs(jsa.total_probability() - 1.0) < 1e-9
        spectrum = bp.schmidt_decompose(jsa)
        assert abs(spectrum.coefficients.sum() - 1.0) < 1e-9
        assert spectrum.purity * spectrum.schmidt_number == pytest.approx(1.0, abs=1e-9)
        narrow = bp.FilterSpec(center_nm=1570.0, fwhm_nm=12.0)
        filtered = bp.apply_filter(jsa, narrow, narrow)
        assert abs(filtered.total_probability() - 1.0) < 1e-9
