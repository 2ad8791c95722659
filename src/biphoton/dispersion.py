"""Crystal dispersion from configurable Sellmeier coefficient sets.

Refractive index, wavenumber and exact group delay are evaluated from
named coefficient sets with optional temperature corrections. Coefficient
sets are data, not code: the shipped KTP registry lives in
``data/ktp_dispersion.yaml`` and users may register their own sets or load
a registry file (CLI flag ``--dispersion-file``).

Supported formula variants (wavelength λ in µm):

``sellmeier_poles_quadratic``
    n² = c₀ + Σₖ Bₖ/(1 − Cₖ/λ²) − D·λ² with coefficients laid out as
    [c₀, B₁, C₁, ..., Bₘ, Cₘ, D].
``constant``
    n = c₀, dispersionless (synthetic/test sets).

Thermal model: Δn(λ, T) = n₁(λ)·ΔT + n₂(λ)·ΔT² with n₁, n₂ polynomials in
inverse powers of λ (µm) and ΔT relative to the set's reference
temperature. A linear poling-expansion coefficient rides along for use by
the phase-matching layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, InputError, WavelengthRangeError
from .units import C_UM_PER_FS

_FORMULAS = ("sellmeier_poles_quadratic", "constant")


@dataclass(frozen=True)
class ThermalModel:
    """Temperature correction polynomials for one coefficient set.

    ``first_order`` and ``second_order`` hold aₘ with
    nᵢ(λ) = Σₘ aₘ·λ⁻ᵐ (λ in µm), in 1/°C and 1/°C² respectively.
    """

    first_order: tuple[float, ...] = ()
    second_order: tuple[float, ...] = ()
    poling_expansion_per_c: float = 0.0

    def index_correction(self, wavelength_um, delta_t):
        """(Δn, λ·dΔn/dλ) at λ in µm and ΔT in °C."""
        inv = 1.0 / np.asarray(wavelength_um, dtype=float)
        first, second = _inverse_poly(self.first_order, inv), _inverse_poly(self.second_order, inv)
        return tuple(n1 * delta_t + n2 * delta_t**2 for n1, n2 in zip(first, second))


def _inverse_poly(coeffs, inv_lambda):
    """(Σ aₘλ⁻ᵐ, its λ·d/dλ = −Σ m·aₘλ⁻ᵐ), each summed from m = 0 up."""
    terms = [a * inv_lambda**m for m, a in enumerate(coeffs)]
    zero = np.zeros_like(inv_lambda)
    return sum(terms, zero), sum((-m * term for m, term in enumerate(terms)), zero)


@dataclass(frozen=True)
class SellmeierSet:
    """A named dispersion formula with validity range and thermal data."""

    name: str
    formula: str
    coefficients: tuple[float, ...]
    valid_range_nm: tuple[float, float]
    thermal: ThermalModel | None = None
    reference_temperature_c: float = 20.0
    source: str = ""

    def __post_init__(self):
        if self.formula not in _FORMULAS:
            raise InputError(
                f"unknown formula variant {self.formula!r}; expected one of {_FORMULAS}"
            )
        lo, hi = self.valid_range_nm
        if not lo < hi:
            raise InputError(f"set {self.name!r}: empty valid range [{lo}, {hi}] nm")
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "valid_range_nm", (float(lo), float(hi)))

    def check_range(self, wavelength_nm):
        lo, hi = self.valid_range_nm
        w = np.asarray(wavelength_nm, dtype=float)
        if np.min(w) < lo or np.max(w) > hi:
            raise WavelengthRangeError(
                f"wavelength outside validity range of set {self.name!r}: "
                f"requested {np.min(w):.6g}..{np.max(w):.6g} nm, valid [{lo:g}, {hi:g}] nm"
            )


def _index(sset: SellmeierSet, wavelength_nm, temperature_c: float):
    """(n, λ·dn/dλ) at λ in nm after one range check, both in closed form.

    Each pole term Bₖ/(1 − Cₖ/λ²) adds −2Cₖ·term/(λ² − Cₖ) to λ·d(n²)/dλ.
    """
    sset.check_range(wavelength_nm)
    lam_um = np.asarray(wavelength_nm, dtype=float) / 1000.0
    c = sset.coefficients
    if sset.formula == "constant":
        n, lam_dn = np.full(np.shape(lam_um), c[0]), np.zeros(np.shape(lam_um))
    else:
        # sellmeier_poles_quadratic: [c0, B1, C1, ..., Bm, Cm, D]
        lam2 = lam_um**2
        n2 = c[0] + np.zeros_like(lam2)
        lam_dn2 = -2.0 * c[-1] * lam2  # λ·d(n²)/dλ
        for b, pole in zip(c[1:-1:2], c[2:-1:2]):
            term = b / (1.0 - pole / lam2)
            n2 = n2 + term
            lam_dn2 = lam_dn2 - 2.0 * pole * term / (lam2 - pole)
        n = np.sqrt(n2 - c[-1] * lam2)
        lam_dn = lam_dn2 / (2.0 * n)
    delta_t = temperature_c - sset.reference_temperature_c
    if sset.thermal is not None and delta_t != 0.0:
        dn, lam_ddn = sset.thermal.index_correction(lam_um, delta_t)
        n, lam_dn = n + dn, lam_dn + lam_ddn
    return n, lam_dn


def refractive_index(sset: SellmeierSet, wavelength_nm, temperature_c: float = 20.0):
    """Refractive index n(λ, T) for one coefficient set.

    Thermal correction is applied relative to the set's reference
    temperature when thermal data are present; at the reference
    temperature it vanishes exactly.

    Raises:
        WavelengthRangeError: wavelength outside the set's validity range.
    """
    n, _ = _index(sset, wavelength_nm, temperature_c)
    return n if np.ndim(wavelength_nm) else float(n)


def wavenumber(sset: SellmeierSet, wavelength_nm, temperature_c: float = 20.0):
    """Wavenumber k = 2π·n(λ, T)/λ in rad/µm."""
    n, _ = _index(sset, wavelength_nm, temperature_c)
    return 2.0 * np.pi * n / (np.asarray(wavelength_nm, dtype=float) / 1000.0)


def inverse_group_velocity(sset: SellmeierSet, wavelength_nm, temperature_c: float = 20.0):
    """Group delay per unit length k' = ∂k/∂ω = (n − λ·dn/dλ)/c in fs/µm.

    Exact at every wavelength of the set's validity range, edges included;
    positive for normal dispersion.
    """
    n, lam_dn = _index(sset, wavelength_nm, temperature_c)
    return (n - lam_dn) / C_UM_PER_FS


def group_velocity(sset: SellmeierSet, wavelength_nm, temperature_c: float = 20.0):
    """Group velocity 1/k' in µm/fs."""
    return 1.0 / inverse_group_velocity(sset, wavelength_nm, temperature_c)


def constant_index_set(
    name: str, index: float, valid_range_nm: tuple[float, float] = (100.0, 10000.0)
) -> SellmeierSet:
    """Synthetic dispersionless set with n = index (k' = n/c exactly)."""
    return SellmeierSet(
        name=name,
        formula="constant",
        coefficients=(index,),
        valid_range_nm=valid_range_nm,
    )


@dataclass(frozen=True)
class CrystalAxes:
    """Coefficient sets bound to the pump, signal and idler polarizations.

    For type-II configurations signal and idler ride orthogonal axes
    (different sets); equal sets model a type-I-like synthetic process.
    """

    pump: SellmeierSet
    signal: SellmeierSet
    idler: SellmeierSet

    @property
    def is_type_ii(self) -> bool:
        return self.signal.name != self.idler.name


class DispersionRegistry:
    """Named collection of Sellmeier sets."""

    def __init__(self, sets=()):
        self._sets: dict[str, SellmeierSet] = {}
        for s in sets:
            self.register(s)

    def register(self, sset: SellmeierSet) -> None:
        if sset.name in self._sets:
            raise InputError(f"duplicate set name {sset.name!r} in registry")
        self._sets[sset.name] = sset

    def get(self, name: str) -> SellmeierSet:
        try:
            return self._sets[name]
        except KeyError:
            raise InputError(
                f"unknown dispersion set {name!r}; registry has {sorted(self._sets)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._sets)

    def axes(self, pump: str, signal: str, idler: str) -> CrystalAxes:
        return CrystalAxes(self.get(pump), self.get(signal), self.get(idler))


def _thermal_from_dict(d: dict) -> ThermalModel:
    return ThermalModel(
        first_order=tuple(d.get("first_order", ())),
        second_order=tuple(d.get("second_order", ())),
        poling_expansion_per_c=float(d.get("poling_expansion_per_c", 0.0)),
    )


#: libyaml's parser where PyYAML was built with it, else PyYAML's pure-Python
#: one; both feed the same safe constructor and resolver
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def read_yaml(text: str):
    """The document ``text`` as ``yaml.safe_load`` reads it; every YAML input enters here."""
    return yaml.load(text, Loader=_YAML_LOADER)


def load_registry(path: str | Path) -> DispersionRegistry:
    """Load a registry from a YAML file (schema documented in the data dir)."""
    path = Path(path)
    try:
        raw = read_yaml(path.read_text())
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"failed to read dispersion file {path}: {exc}") from exc
    return _registry_from_dict(raw, origin=str(path))


def _registry_from_dict(raw: dict, origin: str) -> DispersionRegistry:
    if not isinstance(raw, dict) or not isinstance(raw.get("sets"), list):
        raise ConfigError(f"{origin}: expected a mapping with a 'sets' list")
    registry = DispersionRegistry()
    for entry in raw["sets"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("thermal") or {}, dict):
            raise ConfigError(
                f"{origin}: bad set entry {entry!r}: expected a mapping, with 'thermal' a mapping"
            )
        try:
            thermal = entry.get("thermal")
            registry.register(
                SellmeierSet(
                    name=entry["name"],
                    formula=entry["formula"],
                    coefficients=tuple(entry["coefficients"]),
                    valid_range_nm=tuple(entry["valid_range_nm"]),
                    thermal=_thermal_from_dict(thermal) if thermal else None,
                    reference_temperature_c=float(entry.get("reference_temperature_c", 20.0)),
                    source=entry.get("source", ""),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{origin}: bad set entry {entry!r}: {exc}") from exc
    return registry


_builtin_cache: DispersionRegistry | None = None


def builtin_registry() -> DispersionRegistry:
    """The shipped KTP registry (cached)."""
    global _builtin_cache
    if _builtin_cache is None:
        text = resources.files("biphoton.data").joinpath("ktp_dispersion.yaml").read_text()
        _builtin_cache = _registry_from_dict(read_yaml(text), origin="builtin registry")
    return _builtin_cache


#: default type-II KTP axis binding, the registry set of each polarization:
#: pump and idler on y, signal on z
KTP_AXIS_SETS = {"pump": "ktp_y", "signal": "ktp_z", "idler": "ktp_y"}


def ktp_axes(registry: DispersionRegistry | None = None) -> CrystalAxes:
    """The default KTP axis binding (``KTP_AXIS_SETS``) in ``registry``, else the shipped one."""
    reg = registry if registry is not None else builtin_registry()
    return reg.axes(**KTP_AXIS_SETS)
