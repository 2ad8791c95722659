import math
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import biphoton as bp
from biphoton.errors import ConfigError, InputError, WavelengthRangeError
from biphoton.units import C_UM_PER_FS


# The hand oracles accept complex λ (np.sqrt rounds reals as math.sqrt does),
# so hand_group_delay can differentiate them by complex step.
def hand_index_ktp_z(lam_um):
    """Independent oracle: the z-axis polynomial written out literally."""
    n2 = (
        2.12725
        + 1.18431 / (1.0 - 0.0514852 / lam_um**2)
        + 0.6603 / (1.0 - 100.00507 / lam_um**2)
        - 0.00968956 * lam_um**2
    )
    return np.sqrt(n2)


def hand_index_ktp_y(lam_um):
    n2 = 2.09930 + 0.922683 / (1.0 - 0.0467695 / lam_um**2) - 0.0138408 * lam_um**2
    return np.sqrt(n2)


def hand_thermal_z(lam_um, temperature_c: float):
    dt = temperature_c - 25.0
    n1 = (9.9587 + 9.9228 / lam_um - 8.9603 / lam_um**2 + 4.1010 / lam_um**3) * 1e-6
    n2 = (-1.1882 + 10.459 / lam_um - 9.8136 / lam_um**2 + 3.1481 / lam_um**3) * 1e-6
    return n1 * dt + n2 * dt**2


def hand_thermal_y(lam_um, temperature_c: float):
    dt = temperature_c - 25.0
    n1 = (6.2897 + 6.3061 / lam_um - 6.0629 / lam_um**2 + 2.6486 / lam_um**3) * 1e-6
    n2 = (-0.14445 + 2.2244 / lam_um - 3.5770 / lam_um**2 + 1.3470 / lam_um**3) * 1e-6
    return n1 * dt + n2 * dt**2


HAND_INDEX = {
    "ktp_y": lambda lam, t: hand_index_ktp_y(lam) + hand_thermal_y(lam, t),
    "ktp_z": lambda lam, t: hand_index_ktp_z(lam) + hand_thermal_z(lam, t),
}


def hand_group_delay(name: str, lam_nm: float, temperature_c: float) -> float:
    """k' = (n − λ·dn/dλ)/c with dn/dλ by complex step (no subtraction error)."""
    lam, h = lam_nm / 1000.0, 1e-20
    dn = HAND_INDEX[name](complex(lam, h), temperature_c).imag / h
    return (HAND_INDEX[name](lam, temperature_c) - lam * dn) / C_UM_PER_FS


class TestRefractiveIndex:
    def test_ktp_z_matches_hand_evaluation(self, ktp):
        expected = hand_index_ktp_z(1.570) + hand_thermal_z(1.570, 20.0)
        assert np.isclose(
            bp.refractive_index(ktp.signal, 1570.0, 20.0), expected, rtol=0, atol=1e-12
        )

    def test_ktp_y_normal_dispersion(self, ktp):
        assert bp.refractive_index(ktp.idler, 785.0, 20.0) > bp.refractive_index(
            ktp.idler, 1570.0, 20.0
        )

    def test_below_range_raises_named_error(self, ktp):
        with pytest.raises(WavelengthRangeError, match="ktp_z"):
            bp.refractive_index(ktp.signal, 200.0, 20.0)

    def test_error_message_carries_interval(self, ktp):
        with pytest.raises(WavelengthRangeError, match="3500"):
            bp.refractive_index(ktp.signal, 5000.0, 20.0)

    def test_index_above_one_inside_range(self, ktp):
        lams = np.linspace(450.0, 1800.0, 40)
        assert np.all(bp.refractive_index(ktp.idler, lams, 20.0) > 1.0)

    @given(
        lam_a=st.floats(min_value=700.0, max_value=1700.0),
        lam_b=st.floats(min_value=700.0, max_value=1700.0),
    )
    def test_monotonic_normal_dispersion(self, lam_a, lam_b):
        if abs(lam_a - lam_b) < 1e-6:  # below index resolution in doubles
            return
        lo, hi = sorted((lam_a, lam_b))
        for sset in (bp.ktp_axes().signal, bp.ktp_axes().idler):
            assert bp.refractive_index(sset, lo, 20.0) > bp.refractive_index(sset, hi, 20.0)

    def test_thermal_correction_vanishes_at_reference(self, ktp):
        # shipped sets anchor their thermal polynomials at 25 degC
        for sset in (ktp.signal, ktp.idler):
            uncorrected = hand_index_ktp_z(1.570) if sset.name == "ktp_z" else hand_index_ktp_y(1.570)
            assert bp.refractive_index(sset, 1570.0, 25.0) == uncorrected

    def test_thermal_correction_applied_away_from_reference(self, ktp):
        n20 = bp.refractive_index(ktp.signal, 1570.0, 20.0)
        n25 = bp.refractive_index(ktp.signal, 1570.0, 25.0)
        assert n20 != n25
        assert abs(n20 - n25) < 1e-4


class TestWavenumber:
    def test_constant_index_round_numbers(self):
        sset = bp.constant_index_set("n2", 2.0)
        assert np.isclose(bp.wavenumber(sset, 2000.0, 20.0), 2 * np.pi, rtol=0, atol=1e-12)

    def test_composes_with_index_oracle(self, ktp):
        n = hand_index_ktp_z(1.570) + hand_thermal_z(1.570, 20.0)
        assert np.isclose(
            bp.wavenumber(ktp.signal, 1570.0, 20.0), 2 * np.pi * n / 1.570, atol=1e-12
        )

    def test_out_of_range_propagates(self, ktp):
        with pytest.raises(WavelengthRangeError):
            bp.wavenumber(ktp.idler, 100.0, 20.0)


class TestInverseGroupVelocity:
    def test_dispersionless_analytic_limit(self):
        sset = bp.constant_index_set("n15", 1.5)
        assert bp.inverse_group_velocity(sset, 1500.0, 20.0) == 1.5 / C_UM_PER_FS

    def test_gvm_condition_at_solved_wavelength(self, ktp):
        lam = bp.gvm_degenerate_wavelength(ktp, 20.0)
        kp_p = bp.inverse_group_velocity(ktp.pump, lam / 2, 20.0)
        kp_s = bp.inverse_group_velocity(ktp.signal, lam, 20.0)
        kp_i = bp.inverse_group_velocity(ktp.idler, lam, 20.0)
        assert abs(kp_p - 0.5 * (kp_s + kp_i)) < 1e-8

    @given(
        fraction=st.floats(min_value=0.0, max_value=1.0),
        temperature_c=st.sampled_from([20.0, 60.0]),
    )
    def test_matches_complex_step_of_hand_oracle(self, fraction, temperature_c):
        # sampled across each shipped set's full validity range, edges included
        for sset in (bp.ktp_axes().signal, bp.ktp_axes().idler):
            lo, hi = sset.valid_range_nm
            lam = min(lo + fraction * (hi - lo), hi)
            expected = hand_group_delay(sset.name, lam, temperature_c)
            got = bp.inverse_group_velocity(sset, lam, temperature_c)
            assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_positive_for_normal_dispersion(self, ktp):
        for lam in (800.0, 1200.0, 1600.0):
            assert bp.inverse_group_velocity(ktp.idler, lam, 20.0) > 0

    def test_range_edge_evaluates_and_beyond_raises(self, ktp):
        assert bp.inverse_group_velocity(ktp.idler, 1800.0, 20.0) > 0
        with pytest.raises(WavelengthRangeError):
            bp.inverse_group_velocity(ktp.idler, np.nextafter(1800.0, np.inf), 20.0)


class TestGvmAgainstHandDelays:
    """``design``'s GVM figures against the hand oracle's complex-step delays."""

    @pytest.mark.parametrize("temperature_c", [20.0, 60.0])
    def test_gvm_angle(self, ktp, temperature_c):
        kp_p, kp_s, kp_i = (
            hand_group_delay(sset.name, lam, temperature_c)
            for sset, lam in ((ktp.pump, 785.0), (ktp.signal, 1570.0), (ktp.idler, 1570.0))
        )
        expected = math.degrees(math.atan2(kp_s - kp_p, kp_p - kp_i))
        angle = bp.gvm_angle(785.0, 1570.0, 1570.0, ktp, temperature_c)
        assert abs(angle - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("temperature_c", [20.0, 60.0])
    def test_gvm_wavelength_brackets_hand_root(self, ktp, temperature_c):
        def residual(lam):
            return hand_group_delay(ktp.pump.name, lam / 2.0, temperature_c) - 0.5 * (
                hand_group_delay(ktp.signal.name, lam, temperature_c)
                + hand_group_delay(ktp.idler.name, lam, temperature_c)
            )

        lam = bp.gvm_degenerate_wavelength(ktp, temperature_c)
        # the bisection stops once its bracket is 1e-6 nm wide
        assert residual(lam - 1e-6) * residual(lam + 1e-6) < 0.0


class TestRegistry:
    def test_duplicate_name_rejected(self):
        registry = bp.DispersionRegistry([bp.constant_index_set("a", 2.0)])
        with pytest.raises(InputError, match="duplicate"):
            registry.register(bp.constant_index_set("a", 3.0))

    def test_unknown_name(self):
        with pytest.raises(InputError, match="unknown dispersion set"):
            bp.builtin_registry().get("missing")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "custom.yaml"
        path.write_text(
            "schema_version: 1\n"
            "sets:\n"
            "  - name: flat\n"
            "    formula: constant\n"
            "    coefficients: [1.5]\n"
            "    valid_range_nm: [400.0, 2000.0]\n"
        )
        registry = bp.load_registry(path)
        assert np.isclose(bp.refractive_index(registry.get("flat"), 1000.0, 20.0), 1.5)

    def test_exponents_without_dots_read_as_the_shipped_floats(self, tmp_path):
        # YAML 1.1 reads 62897e-10 as a string; the registry's float rule reads the number
        text = resources.files("biphoton.data").joinpath("ktp_dispersion.yaml").read_text()
        dotless = re.sub(r"(\d+)\.(\d+)(?:e(-?\d+))?",
                         lambda m: f"{int(m[1] + m[2])}e{int(m[3] or 0) - len(m[2])}", text)
        assert "62897e-10" in dotless and not re.search(r"\d\.\d", dotless)
        path = tmp_path / "dotless.yaml"
        path.write_text(dotless)
        registry = bp.load_registry(path)
        for name in ("ktp_y", "ktp_z"):
            assert registry.get(name) == bp.builtin_registry().get(name)

    def test_bad_file_raises_config_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("sets:\n  - name: x\n    formula: nope\n")
        with pytest.raises(ConfigError):
            bp.load_registry(path)

    def test_empty_valid_range_rejected(self):
        with pytest.raises(InputError, match="empty valid range"):
            bp.SellmeierSet(
                name="bad",
                formula="constant",
                coefficients=(1.5,),
                valid_range_nm=(1000.0, 1000.0),
            )
