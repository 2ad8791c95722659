"""Design and simulation toolkit for spectrally engineered photon-pair sources.

The package is a lazy namespace (PEP 562): ``import biphoton`` loads no
submodule. A name of ``__all__`` is looked up in its submodule on every
access, which imports that submodule the first time, and ``biphoton.jsa``
and the other submodules resolve without an explicit import. Nothing is
bound in the package, so a patched module attribute is what the package
returns, and undoing the patch leaves nothing behind.
"""

from importlib import import_module

__version__ = "0.1.0"

#: submodule -> the names the package exports from it
_EXPORTS = {
    "config": ("RunConfig", "config_digest", "default_config", "load_config", "save_config"),
    "dispersion": (
        "CrystalAxes",
        "DispersionRegistry",
        "SellmeierSet",
        "ThermalModel",
        "builtin_registry",
        "constant_index_set",
        "group_velocity",
        "inverse_group_velocity",
        "ktp_axes",
        "load_registry",
        "refractive_index",
        "wavenumber",
    ),
    "efficiency": ("CountSummary", "LossBudget", "klyshko", "predict_heralding"),
    "interference": (
        "HomCurve",
        "SpectralState",
        "heralded_spectral_state",
        "hom_curve",
        "hom_visibility",
        "multipair_visibility_bound",
        "predict_visibility",
    ),
    "jsa": (
        "FilterSpec",
        "FrequencyGrid",
        "JointAmplitude",
        "MarginalSpectrum",
        "SchmidtSpectrum",
        "apply_filter",
        "compute_jsa",
        "gram_purity",
        "marginal_spectrum",
        "optimize_pump_bandwidth",
        "phasematching_function",
        "pump_envelope",
        "schmidt_decompose",
        "support_span",
    ),
    "phasematch": (
        "CrystalSpec",
        "PumpSpec",
        "gvm_angle",
        "gvm_degenerate_wavelength",
        "phase_mismatch",
        "solve_poling_period",
    ),
    "polarization": (
        "TomographyRecord",
        "TwoQubitState",
        "concurrence",
        "fidelity_singlet",
        "full_settings",
        "model_state",
        "reconstruct_mle",
        "simulate_tomography",
        "state_purity",
        "tangle",
        "trace_distance",
    ),
    "spectrometer": (
        "DcfSpec",
        "TofHistogram",
        "arrival_to_wavelength",
        "chi2_independence",
        "idler_arm_preset",
        "resolution_estimate",
        "signal_arm_preset",
        "simulate_jsi_histogram",
        "time_bin_correlation",
        "usable_bandwidth",
        "wavelength_to_arrival",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
#: public submodules, each importable as an attribute of the package
_SUBMODULES = frozenset({*_EXPORTS, "cli", "errors", "units"})

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        return getattr(import_module(f".{module}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
