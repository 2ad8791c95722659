import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import biphoton as bp
from biphoton import phasematch
from biphoton.errors import (
    DegenerateInputError,
    InputError,
    NoSolutionError,
    UndefinedOrientationError,
)
from biphoton.phasematch import unpoled_mismatch
from biphoton.units import nm_to_angular_frequency

EXACT_CONJUGATE_IDLER = 1224600.0 / 775.0  # idler paired with 785 nm pump / 1560 nm signal


def paper_crystal(axes, poling=46.15):
    return bp.CrystalSpec(axes=axes, length_mm=2.0, poling_period_um=poling)


def bisect_inverse_period(axes, lambda_p, lambda_s, lambda_i, temperature):
    """Brute-force oracle: bisection on 1/period of the grating-term match."""
    omega_s = nm_to_angular_frequency(lambda_s)
    omega_i = nm_to_angular_frequency(lambda_i)
    target = abs(unpoled_mismatch(axes, omega_s, omega_i, temperature))

    def residual(inv_period):
        return 2 * np.pi * inv_period - target

    lo, hi = 1.0 / 100.0, 1.0 / 10.0
    assert residual(lo) < 0 < residual(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 1.0 / (0.5 * (lo + hi))


class TestSolvePolingPeriod:
    def test_paper_design_point(self, ktp):
        period = bp.solve_poling_period(785.0, 1570.0, 1570.0, 20.0, ktp)
        assert period == pytest.approx(46.15, abs=0.4)

    def test_round_trip_null(self, ktp):
        period = bp.solve_poling_period(785.0, 1570.0, 1570.0, 20.0, ktp)
        crystal = paper_crystal(ktp, poling=period)
        omega = nm_to_angular_frequency(1570.0)
        assert abs(bp.phase_mismatch(crystal, omega, omega)) < 1e-10

    @pytest.mark.parametrize("temperature", [10.0, 20.0, 25.0, 40.0])
    def test_round_trip_null_at_each_temperature(self, ktp, temperature):
        # the solve divides by the thermal expansion factor that CrystalSpec multiplies
        # back in; the shipped sets' reference temperature is 25 °C
        period = bp.solve_poling_period(785.0, 1570.0, 1570.0, temperature, ktp)
        crystal = bp.CrystalSpec(axes=ktp, length_mm=2.0, poling_period_um=period,
                                 temperature_c=temperature)
        omega = nm_to_angular_frequency(1570.0)
        assert abs(bp.phase_mismatch(crystal, omega, omega)) < 1e-12

    def test_round_trip_without_thermal_data_ignores_temperature(self):
        axes = bp.CrystalAxes(pump=bp.constant_index_set("p", 1.9),
                              signal=bp.constant_index_set("s", 1.7),
                              idler=bp.constant_index_set("i", 1.7))
        omega = nm_to_angular_frequency(1570.0)
        periods = []
        for temperature in (10.0, 20.0, 25.0, 40.0):
            periods.append(bp.solve_poling_period(785.0, 1570.0, 1570.0, temperature, axes))
            crystal = bp.CrystalSpec(axes=axes, length_mm=2.0, poling_period_um=periods[-1],
                                     temperature_c=temperature)
            assert crystal.expanded_poling_period_um == periods[-1]
            assert abs(bp.phase_mismatch(crystal, omega, omega)) < 1e-12
        # 2π / Λ = 2π (1.9 / 0.785 − 2 · 1.7 / 1.57) µm⁻¹
        assert periods[0] == pytest.approx(3.925, rel=1e-12)
        assert len(set(periods)) == 1

    def test_nondegenerate_triple_vs_bisection_oracle(self, ktp):
        period = bp.solve_poling_period(785.0, 1560.0, EXACT_CONJUGATE_IDLER, 20.0, ktp)
        degenerate = bp.solve_poling_period(785.0, 1570.0, 1570.0, 20.0, ktp)
        assert period != pytest.approx(degenerate, abs=1e-4)
        oracle = bisect_inverse_period(ktp, 785.0, 1560.0, EXACT_CONJUGATE_IDLER, 20.0)
        # oracle solves the expanded period; map back to the reference temperature
        expansion = ktp.pump.thermal.poling_expansion_per_c
        oracle /= 1.0 + expansion * (20.0 - ktp.pump.reference_temperature_c)
        assert period == pytest.approx(oracle, abs=1e-9)

    def test_energy_conservation_enforced(self, ktp):
        with pytest.raises(InputError, match="energy conservation"):
            bp.solve_poling_period(785.0, 1560.0, 1580.16, 20.0, ktp)

    def test_zero_unpoled_mismatch_has_no_solution(self):
        flat = bp.constant_index_set("flat", 1.8)
        axes = bp.CrystalAxes(pump=flat, signal=flat, idler=flat)
        with pytest.raises(NoSolutionError):
            bp.solve_poling_period(785.0, 1570.0, 1570.0, 20.0, axes)

    @given(signal=st.floats(min_value=1450.0, max_value=1600.0))
    def test_round_trip_property(self, signal):
        axes = bp.ktp_axes()
        pump = 785.0
        idler = 1.0 / (1.0 / pump - 1.0 / signal)
        period = bp.solve_poling_period(pump, signal, idler, 20.0, axes)
        crystal = bp.CrystalSpec(axes=axes, length_mm=2.0, poling_period_um=period)
        mismatch = bp.phase_mismatch(
            crystal, nm_to_angular_frequency(signal), nm_to_angular_frequency(idler)
        )
        assert abs(mismatch) < 1e-10


class TestPhaseMismatch:
    def test_paper_crystal_well_inside_central_lobe(self, ktp):
        crystal = paper_crystal(ktp)
        omega = nm_to_angular_frequency(1570.0)
        mismatch = bp.phase_mismatch(crystal, omega, omega)
        # within a tenth of the central sinc lobe half width 2*pi/L
        assert abs(mismatch) < 2 * np.pi / (crystal.length_um * 10.0)

    def test_infinite_period_limit_is_unpoled_mismatch(self, ktp):
        omega = nm_to_angular_frequency(1570.0)
        crystal = bp.CrystalSpec(axes=ktp, length_mm=2.0, poling_period_um=1e15)
        raw = unpoled_mismatch(ktp, omega, omega, 20.0)
        assert bp.phase_mismatch(crystal, omega, omega) == pytest.approx(raw, abs=1e-12)

    def test_vectorized_evaluation(self, ktp):
        crystal = paper_crystal(ktp)
        omegas = nm_to_angular_frequency(np.array([1550.0, 1570.0, 1590.0]))
        values = bp.phase_mismatch(crystal, omegas, omegas[::-1])
        assert values.shape == (3,)

    def test_scalar_call_starts_no_thread(self, ktp, monkeypatch):
        # a fresh split worker: its thread starts with the first job handed to it
        worker = phasematch._SplitWorker()
        monkeypatch.setattr(phasematch, "_worker", worker)
        crystal = paper_crystal(ktp)
        omega = nm_to_angular_frequency(1570.0)
        mismatch = bp.phase_mismatch(crystal, omega, omega)
        phi = bp.phasematching_function(omega, omega, crystal)
        assert np.ndim(mismatch) == np.ndim(phi) == 0
        assert worker.thread is None
        bp.phase_mismatch(crystal, np.full(2, omega), np.full(2, omega))
        assert worker.thread is not None and worker.thread.is_alive()

    def test_thermal_expansion_off_is_bit_identical(self):
        flat_a = bp.constant_index_set("fa", 1.9)
        flat_b = bp.constant_index_set("fb", 1.7)
        axes = bp.CrystalAxes(pump=flat_a, signal=flat_b, idler=flat_a)
        omega = nm_to_angular_frequency(1570.0)
        m20 = bp.phase_mismatch(
            bp.CrystalSpec(axes=axes, length_mm=2.0, poling_period_um=46.0, temperature_c=20.0),
            omega,
            omega,
        )
        m21 = bp.phase_mismatch(
            bp.CrystalSpec(axes=axes, length_mm=2.0, poling_period_um=46.0, temperature_c=21.0),
            omega,
            omega,
        )
        assert m20 == m21

    def test_mismatch_changing_sign_is_rejected(self):
        # dk0 runs from about -2.6e-3 to +2.5e-3 rad/um over these signals; a
        # per-point grating order would jump dK by 4*pi/period near 1570 nm
        axes = bp.CrystalAxes(
            pump=bp.constant_index_set("p", 1.8),
            signal=bp.constant_index_set("s", 1.9),
            idler=bp.constant_index_set("i", 1.7),
        )
        crystal = bp.CrystalSpec(axes=axes, length_mm=2.0, poling_period_um=46.0)
        signals = nm_to_angular_frequency(np.array([1560.0, 1569.9, 1570.1, 1580.0]))
        idler = nm_to_angular_frequency(1570.0)
        with pytest.raises(InputError, match=r"changes sign.*-2\.565e-03 to 2\.533e-03"):
            bp.phase_mismatch(crystal, signals, idler)
        # one-signed subsets and single points keep the compensating order
        grating = 2 * np.pi / 46.0
        for subset, sign in ((signals[:2], -1.0), (signals[2:], 1.0)):
            dk0 = unpoled_mismatch(axes, subset, idler, 20.0)
            assert np.all(np.sign(dk0) == sign)
            assert np.array_equal(bp.phase_mismatch(crystal, subset, idler), dk0 - sign * grating)
            for omega in subset:
                assert bp.phase_mismatch(crystal, omega, idler) == (
                    unpoled_mismatch(axes, omega, idler, 20.0) - sign * grating
                )

    def test_zeros_and_negatives_take_one_order(self, ktp, monkeypatch):
        crystal = paper_crystal(ktp)
        grating = 2 * np.pi / crystal.expanded_poling_period_um
        for dk0 in ([0.0, -1e-3, 0.0], [0.0, 1e-3], [0.0, 0.0]):
            monkeypatch.setattr(
                phasematch, "unpoled_mismatch", lambda *args, dk0=dk0: np.array(dk0)
            )
            sign = -1.0 if min(dk0) < 0.0 else 1.0
            # every point, zeros included, gets the order of the nonzero ones
            expected = np.array(dk0) - sign * grating
            assert np.array_equal(bp.phase_mismatch(crystal, 0.0, 0.0), expected)


class TestGvmAngle:
    def test_forty_five_degrees_at_gvm_point(self, ktp):
        lam = bp.gvm_degenerate_wavelength(ktp, 20.0)
        angle = bp.gvm_angle(lam / 2.0, lam, lam, ktp, 20.0)
        assert angle == pytest.approx(45.0, abs=1.0)

    def test_zero_when_signal_matches_pump(self):
        axes = bp.CrystalAxes(
            pump=bp.constant_index_set("p", 2.0),
            signal=bp.constant_index_set("s", 2.0),
            idler=bp.constant_index_set("i", 1.5),
        )
        assert bp.gvm_angle(785.0, 1570.0, 1570.0, axes, 20.0) == 0.0

    def test_constant_sets_give_exact_diagonal(self):
        # k'_s − k'_p = k'_p − k'_i = −0.1/c: the ridge points along −135°
        axes = bp.CrystalAxes(
            pump=bp.constant_index_set("p", 2.0),
            signal=bp.constant_index_set("s", 1.9),
            idler=bp.constant_index_set("i", 2.1),
        )
        assert bp.gvm_angle(785.0, 1570.0, 1570.0, axes, 20.0) == pytest.approx(
            -135.0, rel=0.0, abs=1e-12
        )

    def test_undefined_orientation(self):
        flat = bp.constant_index_set("f", 2.0)
        axes = bp.CrystalAxes(pump=flat, signal=flat, idler=flat)
        with pytest.raises(UndefinedOrientationError):
            bp.gvm_angle(785.0, 1570.0, 1570.0, axes, 20.0)

    def test_paper_point_close_to_gvm(self, ktp):
        # compose the group-delay oracle by hand
        kp_p = bp.inverse_group_velocity(ktp.pump, 785.0, 20.0)
        kp_s = bp.inverse_group_velocity(ktp.signal, 1570.0, 20.0)
        kp_i = bp.inverse_group_velocity(ktp.idler, 1570.0, 20.0)
        expected = np.degrees(np.arctan2(kp_s - kp_p, kp_p - kp_i))
        angle = bp.gvm_angle(785.0, 1570.0, 1570.0, ktp, 20.0)
        assert angle == pytest.approx(expected, abs=1e-9)
        assert angle == pytest.approx(45.0, abs=5.0)


class TestGvmDegenerateWavelength:
    def test_paper_prediction(self, ktp):
        lam = bp.gvm_degenerate_wavelength(ktp, 20.0)
        assert lam == pytest.approx(1582.0, abs=3.0)

    def test_residual_below_contract(self, ktp):
        from biphoton.phasematch import _gvm_residual

        lam = bp.gvm_degenerate_wavelength(ktp, 20.0)
        assert abs(_gvm_residual(ktp, lam, 20.0)) < 1e-8

    def test_dispersionless_axes_degenerate(self):
        flat = bp.constant_index_set("f", 1.8)
        axes = bp.CrystalAxes(pump=flat, signal=flat, idler=flat)
        with pytest.raises(DegenerateInputError):
            bp.gvm_degenerate_wavelength(axes, 20.0)

    def test_mean_index_pump_is_degenerate(self):
        # n_p = (n_s + n_i)/2 holds at every wavelength; rounding leaves ulp residuals
        axes = bp.CrystalAxes(
            pump=bp.constant_index_set("p", 1.8),
            signal=bp.constant_index_set("s", 1.7),
            idler=bp.constant_index_set("i", 1.9),
        )
        with pytest.raises(DegenerateInputError):
            bp.gvm_degenerate_wavelength(axes, 20.0)

    def test_no_sign_change_raises(self):
        axes = bp.CrystalAxes(
            pump=bp.constant_index_set("p", 2.0),
            signal=bp.constant_index_set("s", 1.9),
            idler=bp.constant_index_set("i", 1.7),
        )
        with pytest.raises(NoSolutionError):
            bp.gvm_degenerate_wavelength(axes, 20.0)

    @pytest.mark.parametrize(
        "window", [(1700.0, 1400.0), (1550.0, 1550.0), (-100.0, 1700.0), (0.0, 1700.0),
                   (1400.0, math.inf), (math.nan, 1700.0), (1400.0, math.nan)],
    )
    def test_bad_window_rejected(self, ktp, window):
        # a reversed window once returned its midpoint, 1550 nm, not the 1581 nm root
        with pytest.raises(InputError, match="window_nm"):
            bp.gvm_degenerate_wavelength(ktp, 20.0, window_nm=window)


class TestSpecs:
    def test_pump_validation(self):
        with pytest.raises(InputError):
            bp.PumpSpec(center_wavelength_nm=785.0, intensity_fwhm_bandwidth_nm=-1.0)
        with pytest.raises(InputError):
            bp.PumpSpec(center_wavelength_nm=785.0, intensity_fwhm_bandwidth_nm=800.0)

    def test_pulse_shorter_than_transform_limit_rejected(self):
        # 4 ln 2 / FWHM_ω is 169.5 fs for 5.35 nm at 785 nm, so the profile's 170 fs passes
        spec = {"center_wavelength_nm": 785.0, "intensity_fwhm_bandwidth_nm": 5.35}
        assert bp.PumpSpec(**spec, pulse_duration_fs=170.0).pulse_duration_fs == 170.0
        with pytest.raises(InputError, match="transform limit 169.5 fs"):
            bp.PumpSpec(**spec, pulse_duration_fs=169.0)

    def test_crystal_validation(self, ktp):
        with pytest.raises(InputError):
            bp.CrystalSpec(axes=ktp, length_mm=0.0, poling_period_um=46.15)
        with pytest.raises(InputError):
            bp.CrystalSpec(axes=ktp, length_mm=2.0, poling_period_um=-1.0)

    def test_pulse_period(self):
        pump = bp.PumpSpec(
            center_wavelength_nm=785.0,
            intensity_fwhm_bandwidth_nm=5.35,
            repetition_rate_mhz=81.0,
        )
        assert pump.pulse_period_ns == pytest.approx(12.3457, abs=1e-4)
