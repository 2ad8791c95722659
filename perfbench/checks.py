"""Output checks made apart from the program under test.

Every figure the workloads produce is judged here, either against a
computation of this module's own (Sellmeier dispersion with its thermal
polynomials, group delays by complex-step derivative, a bracketing root
search, the frequency grid, the joint spectral amplitude, Gram-form purity)
or against a property the method must have (normalization, Cauchy-Schwarz,
monotone filter survival). Nothing here imports ``biphoton``; the only
shared inputs are the repository's data files.

Each ``check_*`` function raises ``CheckError`` naming the first figure
that is off.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import yaml

C_NM_PER_FS = 299.792458
C_UM_PER_FS = 0.299792458

#: Agreement demanded between two exact routes to the same float figure.
REL_TOL = 1e-9


class CheckError(AssertionError):
    """An output of the program disagrees with the independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(name: str, got: float, want: float, rel: float = REL_TOL, abs_tol: float = 0.0):
    require(
        math.isfinite(got) and abs(got - want) <= max(rel * abs(want), abs_tol),
        f"{name}: program gave {got!r}, independent value {want!r}",
    )


# ---------------------------------------------------------------- dispersion


class Medium:
    """One Sellmeier set read straight from the registry YAML."""

    def __init__(self, entry: dict):
        self.name = entry["name"]
        self.coefficients = [float(c) for c in entry["coefficients"]]
        self.reference_c = float(entry.get("reference_temperature_c", 20.0))
        thermal = entry.get("thermal") or {}
        self.first = [float(a) for a in thermal.get("first_order", ())]
        self.second = [float(a) for a in thermal.get("second_order", ())]
        self.expansion = float(thermal.get("poling_expansion_per_c", 0.0))

    def index(self, lam_um, temperature_c):
        """n(λ, T); λ in µm, real or complex (for complex-step derivatives)."""
        c = self.coefficients
        lam2 = lam_um * lam_um
        n2 = c[0] - c[-1] * lam2
        for k in range(1, len(c) - 1, 2):
            n2 = n2 + c[k] * lam2 / (lam2 - c[k + 1])
        dt = temperature_c - self.reference_c
        inv = 1.0 / lam_um
        n1 = sum(a * inv**m for m, a in enumerate(self.first))
        nt2 = sum(a * inv**m for m, a in enumerate(self.second))
        return np.sqrt(n2) + n1 * dt + nt2 * dt * dt

    def k(self, lam_nm, temperature_c):
        """Wavenumber in rad/µm."""
        lam_um = np.asarray(lam_nm, dtype=float) / 1000.0
        return 2.0 * np.pi * self.index(lam_um, temperature_c) / lam_um

    def group_delay(self, lam_nm: float, temperature_c: float) -> float:
        """k' = (n − λ dn/dλ)/c in fs/µm, dn/dλ by complex step."""
        lam = lam_nm / 1000.0
        h = 1e-20
        dn = float(np.imag(self.index(complex(lam, h), temperature_c))) / h
        n = float(self.index(lam, temperature_c))
        return (n - lam * dn) / C_UM_PER_FS


class Source:
    """The default profile's crystal and pump, read from the data files."""

    def __init__(self, data_dir: Path):
        registry = yaml.safe_load((data_dir / "ktp_dispersion.yaml").read_text())
        media = {e["name"]: Medium(e) for e in registry["sets"]}
        profile = yaml.safe_load((data_dir / "default_profile.yaml").read_text())
        crystal = profile["crystal"]
        self.pump_axis = media[crystal["pump_axis"]]
        self.signal_axis = media[crystal["signal_axis"]]
        self.idler_axis = media[crystal["idler_axis"]]
        self.length_um = float(crystal["length_mm"]) * 1000.0
        self.poling_um = float(crystal["poling_period_um"])
        self.temperature_c = float(crystal["temperature_c"])
        self.pump_nm = float(profile["pump"]["center_wavelength_nm"])
        self.pump_fwhm_nm = float(profile["pump"]["intensity_fwhm_bandwidth_nm"])
        grid = profile["grid"]
        self.grid = (
            float(grid["center_signal_nm"]),
            float(grid["center_idler_nm"]),
            float(grid["half_span_nm"]),
            int(grid["points_per_axis"]),
        )

    def unpoled_mismatch(self, lam_p, lam_s, lam_i, temperature_c):
        return (
            self.pump_axis.k(lam_p, temperature_c)
            - self.signal_axis.k(lam_s, temperature_c)
            - self.idler_axis.k(lam_i, temperature_c)
        )

    def poling_period(self, lam_p: float, lam_dc: float, temperature_c: float) -> float:
        """Period at the pump set's reference temperature nulling ΔK at T."""
        dk0 = float(self.unpoled_mismatch(lam_p, lam_dc, lam_dc, temperature_c))
        at_t = 2.0 * np.pi / abs(dk0)
        pump = self.pump_axis
        return at_t / (1.0 + pump.expansion * (temperature_c - pump.reference_c))

    def gvm_residual(self, lam_dc: float, temperature_c: float) -> float:
        kp = self.pump_axis.group_delay(lam_dc / 2.0, temperature_c)
        ks = self.signal_axis.group_delay(lam_dc, temperature_c)
        ki = self.idler_axis.group_delay(lam_dc, temperature_c)
        return kp - 0.5 * (ks + ki)

    def gvm_wavelength(self, temperature_c: float, lo=1400.0, hi=1700.0) -> float:
        """Root of the GVM residual by regula falsi (Illinois) on [lo, hi]."""
        f_lo, f_hi = self.gvm_residual(lo, temperature_c), self.gvm_residual(hi, temperature_c)
        require(f_lo * f_hi < 0.0, "independent GVM residual has no sign change")
        side = 0
        for _ in range(200):
            mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            f_mid = self.gvm_residual(mid, temperature_c)
            if f_mid == 0.0 or hi - lo < 1e-9:
                break
            if f_mid * f_hi > 0.0:
                hi, f_hi = mid, f_mid
                if side == -1:
                    f_lo /= 2.0
                side = -1
            else:
                lo, f_lo = mid, f_mid
                if side == 1:
                    f_hi /= 2.0
                side = 1
        return mid

    def gvm_angle(self, lam_p: float, lam_s: float, lam_i: float, temperature_c: float) -> float:
        kp = self.pump_axis.group_delay(lam_p, temperature_c)
        ks = self.signal_axis.group_delay(lam_s, temperature_c)
        ki = self.idler_axis.group_delay(lam_i, temperature_c)
        return math.degrees(math.atan2(ks - kp, kp - ki))

    # ------------------------------------------------------------ spectra

    def axes(self, points: int | None = None):
        """Signal and idler angular-frequency axes (rad/fs), ascending."""
        cs, ci, half, n = self.grid
        n = n if points is None else points
        two_pi_c = 2.0 * np.pi * C_NM_PER_FS
        return tuple(
            np.linspace(two_pi_c / (c + half), two_pi_c / (c - half), n) for c in (cs, ci)
        )

    def cell_area(self, points: int | None = None) -> float:
        ws, wi = self.axes(points)
        return float((ws[1] - ws[0]) * (wi[1] - wi[0]))

    def jsa(self, pump_fwhm_nm: float, temperature_c: float, points: int | None = None):
        """Normalized f = α(ωs+ωi)·sinc(LΔK/2)e^{−iLΔK/2} on the grid."""
        ws, wi = self.axes(points)
        two_pi_c = 2.0 * np.pi * C_NM_PER_FS
        wp = two_pi_c / self.pump_nm
        sigma = two_pi_c / self.pump_nm**2 * pump_fwhm_nm / math.sqrt(2.0 * math.log(2.0))
        s, i = np.meshgrid(ws, wi, indexing="ij")
        dk0 = self.unpoled_mismatch(two_pi_c / (s + i), two_pi_c / s, two_pi_c / i, temperature_c)
        expanded = self.poling_um * (
            1.0 + self.pump_axis.expansion * (temperature_c - self.pump_axis.reference_c)
        )
        dk = dk0 - np.sign(dk0) * 2.0 * np.pi / expanded
        x = self.length_um * dk / 2.0
        f = np.exp(-((s + i - wp) ** 2) / sigma**2) * np.sinc(x / np.pi) * np.exp(-1j * x)
        return f / np.sqrt(np.sum(np.abs(f) ** 2) * self.cell_area(points))


def gram_purity(f: np.ndarray) -> float:
    """Schmidt purity ‖FF†‖²_F / ‖F‖⁴_F, with no SVD."""
    gram = f @ f.conj().T
    norm2 = float(np.real(np.vdot(f, f)))
    return float(np.real(np.vdot(gram, gram))) / norm2**2


def gaussian_transmission(lam_nm, center_nm: float, fwhm_nm: float):
    return np.exp(-4.0 * math.log(2.0) * (np.asarray(lam_nm) - center_nm) ** 2 / fwhm_nm**2)


# ---------------------------------------------------------------- CLI files


def _comments(path: Path) -> dict:
    out = {}
    with path.open() as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].partition(":")
            out[key.strip()] = value.strip()
    return out


def read_jsa_csv(path: Path):
    """(amplitudes, cell area) from ``jsa_amplitudes.csv`` and its comments."""
    meta = _comments(path)
    cs = float(meta["grid_center_signal_nm"])
    ci = float(meta["grid_center_idler_nm"])
    half = float(meta["grid_half_span_nm"])
    n = int(meta["grid_points_per_axis"])
    values = np.loadtxt(path, delimiter=",", comments="#", skiprows=len(meta) + 1)
    require(values.shape == (n, 2 * n), f"{path.name}: shape {values.shape}, grid {n}")
    two_pi_c = 2.0 * np.pi * C_NM_PER_FS
    d = [(two_pi_c / (c - half) - two_pi_c / (c + half)) / (n - 1) for c in (cs, ci)]
    return values[:, 0::2] + 1j * values[:, 1::2], d[0] * d[1]


def check_design(report: dict, source: Source, temperature_c: float) -> None:
    lam_p = source.pump_nm
    close("poling_period_um", report["poling_period_um"],
           source.poling_period(lam_p, 2.0 * lam_p, temperature_c))
    close("gvm_wavelength_nm", report["gvm_wavelength_nm"],
           source.gvm_wavelength(temperature_c), abs_tol=0.01)
    close("gvm_angle_deg", report["gvm_angle_deg"],
           source.gvm_angle(lam_p, 2.0 * lam_p, 2.0 * lam_p, temperature_c), abs_tol=1e-3)


def check_jsa_files(out_dir: Path, filtered: bool) -> float:
    """Normalization, Gram purity and survival of one ``jsa compute`` run."""
    f, cell = read_jsa_csv(out_dir / "jsa_amplitudes.csv")
    report = json.loads((out_dir / "schmidt_report.json").read_text())
    close("normalization", float(np.sum(np.abs(f) ** 2)) * cell, 1.0)
    purity = report["purity"]
    close("purity", purity, gram_purity(f))
    close("1/schmidt_number", 1.0 / report["schmidt_number"], purity)
    lead = np.asarray(report["leading_coefficients"])
    require(bool(np.all(lead >= 0.0) and np.all(np.diff(lead) <= 0.0)),
             "leading_coefficients not non-negative and descending")
    require(float(np.sum(lead**2)) <= purity * (1 + REL_TOL), "Σλ² of leading terms > purity")
    survival = report["filter_survival"]
    if filtered:
        require(survival is not None, "filtered run reports no survival")
        for arm in ("signal", "idler"):
            require(0.0 < survival[arm] <= 1.0, f"survival.{arm} outside (0, 1]")
        require(survival["total"] <= min(survival["signal"], survival["idler"]) * (1 + REL_TOL),
                 "survival.total exceeds a single arm's survival")
    else:
        require(survival is None, "unfiltered run reports a survival")
    return purity


def check_hom_files(out_dir: Path, filtered_purity: float) -> None:
    """P(0) = ½(1 − V), V = purity of identical sources, P(±2000 fs) → ½."""
    report = json.loads((out_dir / "hom_report.json").read_text())
    v = report["visibility_spectral"]
    close("visibility_spectral", v, filtered_purity)
    curve = dict(np.loadtxt(out_dir / "hom_curve.csv", delimiter=",", comments="#", skiprows=6))
    close("P(0)", curve[0.0], 0.5 * (1.0 - v))
    for tau in (-2000.0, 2000.0):
        close(f"P({tau:g})", curve[tau], 0.5, rel=0.0, abs_tol=1e-4)


def check_spectro_file(path: Path, pairs: int, seed: int) -> None:
    meta = _comments(path)
    body = np.loadtxt(path, delimiter=",", comments="#", skiprows=len(meta) + 1)
    counts = int(body[:, 1:].sum())
    require(int(meta["total_pairs"]) == pairs, "total_pairs differs from --pairs")
    require(int(meta["seed"]) == seed, "seed differs from --seed")
    require(counts + int(meta["wrapped_pairs"]) == pairs,
             f"histogram {counts} + wrapped {meta['wrapped_pairs']} != {pairs} pairs")


def check_tomography(state: dict, depolarization: float) -> None:
    rho = np.asarray(state["rho_real"]) + 1j * np.asarray(state["rho_imag"])
    require(np.max(np.abs(rho - rho.conj().T)) < 1e-10, "rho not Hermitian")
    close("trace(rho)", float(np.real(np.trace(rho))), 1.0)
    require(float(np.linalg.eigvalsh(rho)[0]) > -1e-9, "rho not positive semidefinite")
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    fidelity = float(np.real(singlet @ rho @ singlet))
    close("fidelity_singlet", state["fidelity_singlet"], fidelity)
    close("purity", state["purity"], float(np.real(np.vdot(rho, rho))))
    close("fidelity vs 1 - 3p/4", fidelity, 1.0 - 0.75 * depolarization, rel=0.0, abs_tol=0.02)


def check_efficiency(report: dict, counts: dict, budget: dict) -> None:
    c = counts["coincidences"]
    close("klyshko_signal", report["klyshko_signal"], c / counts["singles_idler"])
    close("klyshko_idler", report["klyshko_idler"], c / counts["singles_signal"])
    close("predicted_heralding", report["predicted_heralding"], math.prod(budget.values()))


# ---------------------------------------------------------------- scans


def check_optimum(width_nm: float, purity: float, window, coarse_purities) -> None:
    lo, hi = window
    require(lo < width_nm < hi, f"optimum {width_nm} nm outside the window {window}")
    require(0.0 < purity <= 1.0, f"optimum purity {purity} outside (0, 1]")
    best = max(coarse_purities)
    require(purity >= best * (1 - REL_TOL), f"optimum purity {purity} below coarse scan {best}")


def check_filter_point(survival: float, purity: float, f: np.ndarray, base: np.ndarray,
                       source: Source, center_nm: float, width_nm: float) -> None:
    """Survival from this module's own transmission, normalization, Gram purity."""
    two_pi_c = 2.0 * np.pi * C_NM_PER_FS
    lam_s, lam_i = (two_pi_c / w for w in source.axes(base.shape[0]))
    t = np.outer(gaussian_transmission(lam_s, center_nm, width_nm),
                 gaussian_transmission(lam_i, center_nm, width_nm))
    weight = np.abs(base) ** 2
    close(f"survival at {width_nm:.3f} nm", survival, float(np.sum(weight * t) / np.sum(weight)))
    require(0.0 < survival <= 1.0, f"survival {survival} at {width_nm:.3f} nm outside (0, 1]")
    close(f"normalization at {width_nm:.3f} nm",
          float(np.sum(np.abs(f) ** 2)) * source.cell_area(base.shape[0]), 1.0)
    close(f"purity at {width_nm:.3f} nm", purity, gram_purity(f))


def check_falling(survivals) -> None:
    """Filter survival strictly falls as the filter narrows."""
    require(all(b < a for a, b in zip(survivals, survivals[1:])),
            f"survival does not fall as the filter narrows: {survivals}")


def check_crystal_point(point: dict, reference_purity: float, source: Source, cell: float,
                        own_purity: float) -> None:
    t = point["temperature_c"]
    close(f"normalization at {t:.2f} C", point["norm"] * cell, 1.0)
    close(f"purity at {t:.2f} C", point["purity"], own_purity)
    close(f"Tr(rho^2) at {t:.2f} C", point["herald_purity"], own_purity)
    v = point["visibility"]
    require(0.0 < v <= math.sqrt(point["purity"] * reference_purity) * (1 + REL_TOL),
             f"visibility {v} at {t:.2f} C exceeds sqrt(P_a P_b)")
    lam_p = source.pump_nm
    close(f"poling period at {t:.2f} C", point["poling_period_um"],
           source.poling_period(lam_p, 2.0 * lam_p, t))
    close(f"gvm angle at {t:.2f} C", point["gvm_angle_deg"],
           source.gvm_angle(lam_p, 2.0 * lam_p, 2.0 * lam_p, t), abs_tol=1e-3)
