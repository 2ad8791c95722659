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

Every YAML input (run config, registry, loss budget) is parsed by
``read_yaml``, and ``_spec``, the one section reader, reads each section
into its dataclass. A registry set entry is a ``SellmeierSet`` section,
its ``thermal`` block a ``ThermalModel`` one.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
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

    def __post_init__(self):
        terms = (*self.first_order, *self.second_order, self.poling_expansion_per_c)
        if not all(map(math.isfinite, terms)):
            raise InputError(f"thermal terms must be finite, got {terms}")

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
        coefficients = tuple(map(float, self.coefficients))
        count = len(coefficients)
        if self.formula == "constant" and count != 1:
            raise InputError(f"set {self.name!r}: formula 'constant' takes exactly 1 "
                             f"coefficient, got {count}")
        if self.formula == "sellmeier_poles_quadratic" and (count < 2 or count % 2):
            raise InputError(f"set {self.name!r}: formula 'sellmeier_poles_quadratic' takes "
                             f"[c0, B1, C1, ..., Bm, Cm, D], an even count of at least 2 "
                             f"coefficients, got {count}")
        lo, hi = valid_range = tuple(map(float, self.valid_range_nm))
        if not all(map(math.isfinite, coefficients + valid_range)):
            raise InputError(f"set {self.name!r}: coefficients and valid range must be finite")
        if not lo < hi:
            raise InputError(f"set {self.name!r}: empty valid range [{lo}, {hi}] nm")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "valid_range_nm", valid_range)

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


#: libyaml's parser where PyYAML was built with it, else PyYAML's pure-Python
#: one; both feed the same safe constructor and resolver
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

SCHEMA_VERSION = 1


def read_yaml(text: str):
    """The document ``text`` as ``yaml.safe_load`` reads it; every YAML input enters here."""
    return yaml.load(text, Loader=_YAML_LOADER)


def _read_yaml_file(path: Path):
    """The YAML document in the file at ``path``; any failure to read it is a ConfigError."""
    try:
        return read_yaml(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"{path} does not exist") from None
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


#: converter for each scalar field annotation. Float fields coerce, because
#: PyYAML reads exponent forms without a dot, such as 6e1, as strings; int and
#: str fields take only a value of their own type (no 1.0 for 1, no 5 for
#: '5'), and no field takes a boolean (YAML's true, on, yes), which float()
#: would read as 1.0.
_CONVERT = {"float": float, "int": int, "str": str}


def _convert(annotation: str, value, key: str):
    kind, optional, _ = annotation.partition(" | None")
    if value is None and optional:
        return None
    if kind.startswith("tuple["):  # tuple[float, ...] or tuple[float, float]: a YAML list
        items = kind[6:-1].split(", ")
        if not isinstance(value, list) or ("..." not in items and len(value) != len(items)):
            raise ConfigError(f"bad value for {key}: {value!r} is not of type {kind}")
        return tuple(_convert(items[0], item, f"{key}[{i}]") for i, item in enumerate(value))
    try:
        converted = _CONVERT[kind](value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc
    if isinstance(value, bool) or (kind != "float" and type(value) is not type(converted)):
        raise ConfigError(f"bad value for {key}: {value!r} is not of type {kind}")
    return converted


def _mapping(raw, where: str) -> dict:
    """A copy of one YAML section; an absent or empty section reads as {}."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'top level'} must be a mapping, not {type(raw).__name__}")
    return dict(raw)


def _reject_unknown(rest: dict, where: str) -> None:
    if rest:
        names = ", ".join(f"{where}.{key}".lstrip(".") for key in rest)
        raise ConfigError(f"unknown field {names}")


def _spec(cls, raw, where: str, **given):
    """Build dataclass ``cls`` from the YAML section ``raw`` at ``where``.

    The section's keys are the fields of ``cls`` not in ``given``; an absent
    key takes the field default, and a field without one is required.
    """
    raw = _mapping(raw, where)
    for f in fields(cls):
        if f.name in given:
            continue
        key = f"{where}.{f.name}".lstrip(".")
        if f.name in raw:
            given[f.name] = _convert(f.type, raw.pop(f.name), key)
        elif f.default is MISSING:
            raise ConfigError(f"missing required field {key}")
    _reject_unknown(raw, where)
    return cls(**given)


def _document(raw) -> dict:
    """The top level of a config or registry, its ``schema_version`` checked and removed."""
    top = _mapping(raw, "")
    version = _convert("int", top.pop("schema_version", SCHEMA_VERSION), "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    return top


@contextmanager
def _naming(path: Path | None):
    """Re-raise each InputError raised inside with ``path: `` in front; as is for no path."""
    try:
        yield
    except InputError as exc:
        if path is None:
            raise
        raise type(exc)(f"{path}: {exc}") from None


def load_registry(path: str | Path) -> DispersionRegistry:
    """Load a registry from a YAML file (schema in the data dir); each error names the file."""
    path = Path(path)
    raw = _read_yaml_file(path)
    with _naming(path):
        return _registry_from_dict(raw)


def _registry_from_dict(raw) -> DispersionRegistry:
    """The registry document: ``sets``, each entry a ``SellmeierSet`` section."""
    top = _document(raw)
    sets = top.pop("sets", None)
    _reject_unknown(top, "")
    if not isinstance(sets, list):
        raise ConfigError(f"sets must be a list of set entries, not {type(sets).__name__}")
    registry = DispersionRegistry()
    for i, entry in enumerate(sets):
        where = f"sets[{i}]"
        entry = _mapping(entry, where)
        thermal = _mapping(entry.pop("thermal", None), f"{where}.thermal")
        registry.register(_spec(
            SellmeierSet, entry, where,
            thermal=_spec(ThermalModel, thermal, f"{where}.thermal") if thermal else None,
        ))
    return registry


_builtin_cache: DispersionRegistry | None = None


def builtin_registry() -> DispersionRegistry:
    """The shipped KTP registry (cached)."""
    global _builtin_cache
    if _builtin_cache is None:
        text = resources.files("biphoton.data").joinpath("ktp_dispersion.yaml").read_text()
        _builtin_cache = _registry_from_dict(read_yaml(text))
    return _builtin_cache


#: default type-II KTP axis binding, the registry set of each polarization:
#: pump and idler on y, signal on z
KTP_AXIS_SETS = {"pump": "ktp_y", "signal": "ktp_z", "idler": "ktp_y"}


def ktp_axes(registry: DispersionRegistry | None = None) -> CrystalAxes:
    """The default KTP axis binding (``KTP_AXIS_SETS``) in ``registry``, else the shipped one."""
    reg = registry if registry is not None else builtin_registry()
    return CrystalAxes(**{role: reg.get(name) for role, name in KTP_AXIS_SETS.items()})
