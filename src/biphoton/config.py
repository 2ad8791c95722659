"""Run configuration: YAML schema, validation, defaults and digests.

One versioned YAML document drives every pipeline run; the shipped
default profile encodes the reference source parameters (785 nm pump,
5.35 nm bandwidth, 2 mm crystal, 46.15 µm poling, 81 MHz, 512² grid).
Each YAML section is read into the spec dataclass that holds it by
``dispersion._spec``, the one section reader, which also reads the
dispersion registry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, is_dataclass
from importlib import resources
from pathlib import Path

import yaml

from .dispersion import (
    KTP_AXIS_SETS, SCHEMA_VERSION, CrystalAxes, _convert, _document, _mapping, _naming,
    _read_yaml_file, _reject_unknown, _spec, builtin_registry, load_registry, read_yaml,
)
from .errors import InputError
from .jsa import FilterSpec, FrequencyGrid
from .phasematch import CrystalSpec, PumpSpec
from .spectrometer import DEFAULT_BIN_NS, DcfSpec, idler_arm_preset, signal_arm_preset

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


def _config_from_dict(raw, path: Path | None, dispersion_file: str | Path | None) -> RunConfig:
    """Parse the YAML document of the config file at ``path`` (None: the shipped profile).

    A relative ``dispersion_file`` key is taken from the file's directory. An
    error in the document's own fields starts with ``path: ``, a registry's with its own.
    """
    with _naming(path):
        top = _document(raw)
        key = _convert("str | None", top.get("dispersion_file"), "dispersion_file")
    if dispersion_file:
        registry = load_registry(dispersion_file)
    elif key is not None:
        registry = load_registry(path.parent / key)
    else:
        registry = builtin_registry()
    with _naming(path):
        return _sections(top, registry)


def _sections(top: dict, registry) -> RunConfig:
    """The run config from the document's sections, its crystal axes looked up in ``registry``."""
    crystal = _mapping(top.pop("crystal", None), "crystal")
    axes = CrystalAxes(**{
        role: registry.get(_convert("str", crystal.pop(f"{role}_axis", name),
                                    f"crystal.{role}_axis"))
        for role, name in KTP_AXIS_SETS.items()
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
    directory. Each error names the file it is in.
    """
    path = Path(path)
    return _config_from_dict(_read_yaml_file(path), path, dispersion_file)


def default_config(dispersion_file: str | Path | None = None) -> RunConfig:
    """The shipped default profile (reference source parameters)."""
    text = resources.files("biphoton.data").joinpath("default_profile.yaml").read_text()
    return _config_from_dict(read_yaml(text), None, dispersion_file)


def config_to_dict(config: RunConfig) -> dict:
    """Serializable mapping mirroring the YAML schema; the inverse of the parse."""
    d = _plain(config)
    d["schema_version"] = SCHEMA_VERSION
    axes = d["crystal"].pop("axes")
    d["crystal"].update({f"{role}_axis": axes[role]["name"] for role in KTP_AXIS_SETS})
    d["spectrometer"] = {key: d.pop(key) for key in (*_DCF_PRESETS, "bin_size_ns")}
    filters = {arm: d.pop(f"{arm}_filter") for arm in ("signal", "idler")}
    if any(filters.values()):
        d["filters"] = {arm: spec for arm, spec in filters.items() if spec is not None}
    return d


def save_config(config: RunConfig, path: str | Path) -> None:
    """Write a config back to YAML (round-trips through load_config)."""
    Path(path).write_text(yaml.safe_dump(config_to_dict(config), sort_keys=True))


def _plain(value):
    """A dataclass as nested dicts, its tuples as lists: what yaml.safe_dump can represent."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return [_plain(item) for item in value] if isinstance(value, tuple) else value


def config_digest(config: RunConfig) -> str:
    """Short provenance digest embedded in every output file.

    Hashes the scientific content only: the config and every field of the
    three dispersion sets it binds, thermal blocks included, so a changed
    ``--dispersion-file`` changes the digest and a verbatim copy of the
    shipped registry does not. The output directory is where results
    land, not part of what was computed.
    """
    payload = config_to_dict(config)
    payload.pop("output_dir")
    payload["dispersion"] = _plain(config.crystal.axes)
    canonical = yaml.safe_dump(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
