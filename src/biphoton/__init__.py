"""Design and simulation toolkit for spectrally engineered photon-pair sources."""

from .config import RunConfig, config_digest, default_config, load_config, save_config
from .dispersion import (
    CrystalAxes,
    DispersionRegistry,
    SellmeierSet,
    ThermalModel,
    builtin_registry,
    constant_index_set,
    group_velocity,
    inverse_group_velocity,
    ktp_axes,
    load_registry,
    refractive_index,
    wavenumber,
)
from .efficiency import CountSummary, LossBudget, klyshko, predict_heralding
from .interference import (
    HomCurve,
    SpectralState,
    heralded_spectral_state,
    hom_curve,
    hom_visibility,
    multipair_visibility_bound,
    predict_visibility,
)
from .jsa import (
    FilterSpec,
    FrequencyGrid,
    JointAmplitude,
    MarginalSpectrum,
    SchmidtSpectrum,
    apply_filter,
    compute_jsa,
    gram_purity,
    marginal_spectrum,
    optimize_pump_bandwidth,
    phasematching_function,
    pump_envelope,
    schmidt_decompose,
    support_span,
)
from .phasematch import (
    CrystalSpec,
    PumpSpec,
    gvm_angle,
    gvm_degenerate_wavelength,
    phase_mismatch,
    solve_poling_period,
)
from .polarization import (
    TomographyRecord,
    TwoQubitState,
    concurrence,
    fidelity_singlet,
    full_settings,
    model_state,
    reconstruct_mle,
    simulate_tomography,
    state_purity,
    tangle,
    trace_distance,
)
from .spectrometer import (
    DcfSpec,
    TofHistogram,
    arrival_to_wavelength,
    chi2_independence,
    idler_arm_preset,
    resolution_estimate,
    signal_arm_preset,
    simulate_jsi_histogram,
    time_bin_correlation,
    usable_bandwidth,
    wavelength_to_arrival,
)

__version__ = "0.1.0"
