"""Run configuration: YAML schema, validation, defaults and digests.

One versioned YAML document drives every pipeline run; the shipped
default profile encodes the reference source parameters (785 nm pump,
5.35 nm bandwidth, 2 mm crystal, 46.15 µm poling, 81 MHz, 512² grid).
Each YAML section is read into the spec dataclass that holds it: the keys
are the dataclass fields, an absent key takes the field default, and an
unknown key or a value that the field's type would change is a ConfigError.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, dataclass, fields, is_dataclass
from importlib import resources
from pathlib import Path

import yaml

from .dispersion import CrystalAxes, builtin_registry, load_registry
from .errors import ConfigError, InputError
from .jsa import FilterSpec, FrequencyGrid
from .phasematch import CrystalSpec, PumpSpec
from .spectrometer import DEFAULT_BIN_NS, DcfSpec, idler_arm_preset, signal_arm_preset

SCHEMA_VERSION = 1
#: default registry set of each polarization, named by the crystal's <role>_axis key
_AXES = {"pump": "ktp_y", "signal": "ktp_z", "idler": "ktp_y"}
#: spectrometer keys of the DCF arms, with the preset an absent arm takes
_DCF_PRESETS = {"signal_dcf": signal_arm_preset, "idler_dcf": idler_arm_preset}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated inputs for one reproducible pipeline run."""

    pump: PumpSpec
    crystal: CrystalSpec
    grid: FrequencyGrid
    signal_filter: FilterSpec | None
    idler_filter: FilterSpec | None
    signal_dcf: DcfSpec
    idler_dcf: DcfSpec
    bin_size_ns: float
    seed: int = 0
    output_dir: str = "out"
    dispersion_file: str | None = None

    def __post_init__(self):
        check_seed(self.seed)


def check_seed(seed: int) -> None:
    """Raise InputError for a negative seed, which numpy's generators reject."""
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")


#: converter for each field annotation. Float fields coerce, because PyYAML
#: reads exponent forms without a dot, such as 6e1, as strings; int and str
#: fields reject any value that the conversion would change.
_CONVERT = {"float": float, "int": int, "str": str}


def _convert(annotation: str, value, key: str):
    kind, optional, _ = annotation.partition(" | None")
    if value is None and optional:
        return None
    try:
        converted = _CONVERT[kind](value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc
    if kind != "float" and (converted != value or isinstance(value, bool)):
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


def _config_from_dict(raw, base: Path, dispersion_file: str | Path | None) -> RunConfig:
    """Parse the YAML document.

    A relative ``dispersion_file`` argument is taken from the working
    directory, a relative ``dispersion_file`` key from ``base``.
    """
    top = _mapping(raw, "")
    version = top.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    key = _convert("str | None", top.get("dispersion_file"), "dispersion_file")
    if dispersion_file:
        registry = load_registry(dispersion_file)
    elif key is not None:
        registry = load_registry(base / key)
    else:
        registry = builtin_registry()

    crystal = _mapping(top.pop("crystal", None), "crystal")
    axes = CrystalAxes(**{
        role: registry.get(_convert("str", crystal.pop(f"{role}_axis", name),
                                    f"crystal.{role}_axis"))
        for role, name in _AXES.items()
    })
    filters = _mapping(top.pop("filters", None), "filters")
    arms = {}
    for arm in ("signal", "idler"):
        spec = filters.pop(arm, None)
        arms[f"{arm}_filter"] = None if spec is None else _spec(FilterSpec, spec, f"filters.{arm}")
    _reject_unknown(filters, "filters")
    spectro = _mapping(top.pop("spectrometer", None), "spectrometer")
    dcfs = {
        key: _spec(DcfSpec, spectro.pop(key), f"spectrometer.{key}")
        if key in spectro else preset()
        for key, preset in _DCF_PRESETS.items()
    }
    bin_size_ns = _convert("float", spectro.pop("bin_size_ns", DEFAULT_BIN_NS),
                           "spectrometer.bin_size_ns")
    _reject_unknown(spectro, "spectrometer")
    pump = _spec(PumpSpec, top.pop("pump", None), "pump")
    grid = _spec(FrequencyGrid, top.pop("grid", None), "grid")
    return _spec(RunConfig, top, "", pump=pump, grid=grid, bin_size_ns=bin_size_ns,
                 crystal=_spec(CrystalSpec, crystal, "crystal", axes=axes), **arms, **dcfs)


def load_config(path: str | Path, dispersion_file: str | Path | None = None) -> RunConfig:
    """Load and validate a YAML run configuration.

    ``dispersion_file`` (CLI ``--dispersion-file``) overrides the file
    named inside the config; the shipped registry is the fallback. A
    relative ``dispersion_file`` argument is taken from the working
    directory, a relative ``dispersion_file`` key from the config file's
    directory.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"failed to parse {path}: {exc}") from exc
    return _config_from_dict(raw, path.parent, dispersion_file)


def default_config(dispersion_file: str | Path | None = None) -> RunConfig:
    """The shipped default profile (reference source parameters)."""
    text = resources.files("biphoton.data").joinpath("default_profile.yaml").read_text()
    return _config_from_dict(yaml.safe_load(text), Path(), dispersion_file)


def _fields(spec) -> dict:
    return {f.name: getattr(spec, f.name) for f in fields(spec)}


def config_to_dict(config: RunConfig) -> dict:
    """Serializable mapping mirroring the YAML schema; the inverse of the parse."""
    d = {
        name: _fields(value) if is_dataclass(value) else value
        for name, value in _fields(config).items()
    }
    d["schema_version"] = SCHEMA_VERSION
    axes = d["crystal"].pop("axes")
    d["crystal"].update({f"{role}_axis": getattr(axes, role).name for role in _AXES})
    d["spectrometer"] = {key: d.pop(key) for key in (*_DCF_PRESETS, "bin_size_ns")}
    filters = {arm: d.pop(f"{arm}_filter") for arm in ("signal", "idler")}
    if any(filters.values()):
        d["filters"] = {arm: spec for arm, spec in filters.items() if spec is not None}
    return d


def save_config(config: RunConfig, path: str | Path) -> None:
    """Write a config back to YAML (round-trips through load_config)."""
    Path(path).write_text(yaml.safe_dump(config_to_dict(config), sort_keys=True))


def config_digest(config: RunConfig) -> str:
    """Short provenance digest embedded in every output file.

    Hashes the scientific content only; the output directory is where
    results land, not part of what was computed.
    """
    payload = config_to_dict(config)
    payload.pop("output_dir")
    canonical = yaml.safe_dump(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
