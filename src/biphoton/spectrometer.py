"""Fiber time-of-flight joint-spectral-intensity measurement model.

A dispersion compensation fiber maps wavelength linearly to arrival time
(first-order GVD only); pairs sampled from |f|² are binned into a 2D
time histogram bounded by the pulse repetition window. Samples whose raw
arrival time falls outside the first window are dropped and counted as
wraps, so total histogram counts equal total_pairs minus flagged wraps.

The shipped DCF presets are back-solved from the quoted spectrometer
resolutions and bandwidth, not measured fiber data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError
from .jsa import JointAmplitude
from .phasematch import PumpSpec

#: Default coincidence-logic time bin, ns.
DEFAULT_BIN_NS = 0.128


@dataclass(frozen=True)
class DcfSpec:
    """Linear wavelength-to-time mapping of one dispersive fiber arm."""

    total_dispersion_ps_per_nm: float
    reference_wavelength_nm: float = 1570.0
    insertion_delay_ns: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.total_dispersion_ps_per_nm,
                                       self.reference_wavelength_nm, self.insertion_delay_ns))):
            raise InputError("DCF parameters must be finite")
        if self.total_dispersion_ps_per_nm == 0.0:
            raise InputError("total_dispersion_ps_per_nm must be nonzero")

    @property
    def dispersion_ns_per_nm(self) -> float:
        return self.total_dispersion_ps_per_nm / 1000.0


def signal_arm_preset() -> DcfSpec:
    """Preset reproducing the 0.31 nm resolution arm (inferred)."""
    return DcfSpec(
        total_dispersion_ps_per_nm=-413.0,
        reference_wavelength_nm=1570.0,
        insertion_delay_ns=6.173,
    )


def idler_arm_preset() -> DcfSpec:
    """Preset reproducing the 0.33 nm resolution arm (inferred)."""
    return DcfSpec(
        total_dispersion_ps_per_nm=-388.0,
        reference_wavelength_nm=1570.0,
        insertion_delay_ns=6.173,
    )


def wavelength_to_arrival(dcf: DcfSpec, wavelength_nm) -> np.ndarray | float:
    """Arrival time in ns: delay + D·(λ − λ_ref)."""
    lam = np.asarray(wavelength_nm, dtype=float)
    t = dcf.insertion_delay_ns + dcf.dispersion_ns_per_nm * (lam - dcf.reference_wavelength_nm)
    return t if np.ndim(wavelength_nm) else float(t)


def arrival_to_wavelength(dcf: DcfSpec, arrival_ns) -> np.ndarray | float:
    """Inverse of the linear mapping."""
    t = np.asarray(arrival_ns, dtype=float)
    lam = dcf.reference_wavelength_nm + (t - dcf.insertion_delay_ns) / dcf.dispersion_ns_per_nm
    return lam if np.ndim(arrival_ns) else float(lam)


def resolution_estimate(dcf: DcfSpec, bin_size_ns: float = DEFAULT_BIN_NS) -> float:
    """Spectral resolution bin/|D| in nm."""
    return bin_size_ns / abs(dcf.dispersion_ns_per_nm)


def usable_bandwidth(dcf: DcfSpec, window_ns: float) -> float:
    """Spectral span window/|D| that fits inside one repetition window."""
    return window_ns / abs(dcf.dispersion_ns_per_nm)


@dataclass
class TofHistogram:
    """2D arrival-time histogram with wrap bookkeeping."""

    bin_edges_signal_ns: np.ndarray
    bin_edges_idler_ns: np.ndarray
    counts: np.ndarray
    bin_size_ns: float
    window_ns: float
    total_pairs: int
    wrapped_pairs: int
    wrap_warning: bool

    def __post_init__(self):
        expected = (len(self.bin_edges_signal_ns) - 1, len(self.bin_edges_idler_ns) - 1)
        if self.counts.shape != expected:
            raise InputError(
                f"counts shape {self.counts.shape} does not match edges {expected}"
            )

    @property
    def bin_centers_signal_ns(self) -> np.ndarray:
        e = self.bin_edges_signal_ns
        return 0.5 * (e[:-1] + e[1:])

    @property
    def bin_centers_idler_ns(self) -> np.ndarray:
        e = self.bin_edges_idler_ns
        return 0.5 * (e[:-1] + e[1:])


def simulate_jsi_histogram(
    jsa: JointAmplitude,
    dcf_signal: DcfSpec,
    dcf_idler: DcfSpec,
    pump: PumpSpec,
    bin_size_ns: float = DEFAULT_BIN_NS,
    total_pairs: int = 10**6,
    seed: int = 0,
) -> TofHistogram:
    """Sample pairs from |f|², map to arrival times, bin; seeded.

    Grid cells whose raw arrival time leaves the first repetition window
    are flagged as wraps and their samples dropped, which keeps the
    wavelength-time mapping unambiguous.
    """
    if not 0.0 < bin_size_ns < math.inf:  # NaN-safe
        raise InputError("bin_size_ns must be positive and finite")
    if total_pairs < 1:
        raise InputError("total_pairs must be at least 1")
    if not total_pairs <= 2**63 - 1:  # NaN-safe; the multinomial sampler counts in int64
        raise InputError("total_pairs must be at most 2**63 - 1 (multinomial sampler limit)")
    window_ns = pump.pulse_period_ns
    n_bins = int(np.ceil(window_ns / bin_size_ns))
    edges = np.arange(n_bins + 1) * bin_size_ns

    probabilities = jsa.intensity
    probabilities = probabilities / probabilities.sum()
    rng = np.random.default_rng(seed)
    cell_counts = rng.multinomial(total_pairs, probabilities.ravel()).reshape(
        probabilities.shape
    )

    t_signal = wavelength_to_arrival(dcf_signal, jsa.grid.signal_wavelengths_nm)
    t_idler = wavelength_to_arrival(dcf_idler, jsa.grid.idler_wavelengths_nm)
    keep_signal = (t_signal >= 0.0) & (t_signal < window_ns)
    keep_idler = (t_idler >= 0.0) & (t_idler < window_ns)
    keep = np.outer(keep_signal, keep_idler)
    wrapped = int(cell_counts[~keep].sum())

    bin_signal = np.clip((t_signal // bin_size_ns).astype(int), 0, n_bins - 1)
    bin_idler = np.clip((t_idler // bin_size_ns).astype(int), 0, n_bins - 1)
    counts = np.zeros((n_bins, n_bins), dtype=np.int64)
    kept = np.where(keep, cell_counts, 0)
    np.add.at(counts, (bin_signal[:, None], bin_idler[None, :]), kept)

    return TofHistogram(
        bin_edges_signal_ns=edges,
        bin_edges_idler_ns=edges.copy(),
        counts=counts,
        bin_size_ns=bin_size_ns,
        window_ns=window_ns,
        total_pairs=total_pairs,
        wrapped_pairs=wrapped,
        wrap_warning=wrapped > 0,
    )


def _merge_small(counts: np.ndarray, min_expected: float) -> np.ndarray:
    """Drop empty rows/cols, then coarsen 2x until expected counts are sane."""
    c = counts[counts.sum(axis=1) > 0][:, counts.sum(axis=0) > 0].astype(float)
    while min(c.shape) > 2:
        total = c.sum()
        expected = np.outer(c.sum(axis=1), c.sum(axis=0)) / total
        if (expected < min_expected).mean() <= 0.2 and expected.min() >= 1.0:
            break
        rows = c.shape[0] - (c.shape[0] % 2)
        c = c[:rows].reshape(rows // 2, 2, -1).sum(axis=1)
        cols = c.shape[1] - (c.shape[1] % 2)
        c = c[:, :cols].reshape(c.shape[0], cols // 2, 2).sum(axis=2)
        c = c[c.sum(axis=1) > 0][:, c.sum(axis=0) > 0]
    return c


def chi2_independence(counts: np.ndarray, min_expected: float = 5.0):
    """Pearson χ² test of row/column independence on a 2D histogram.

    Sparse tails are coarsened before testing so the asymptotic χ²
    distribution applies. As ``scipy.stats.chi2_contingency`` by default,
    a table with one degree of freedom gets Yates' continuity correction
    and one with none gives (0, 0, 1). Returns (statistic, dof, p_value).
    """
    merged = _merge_small(np.asarray(counts), min_expected)
    if merged.size == 0:
        raise InputError("χ² independence needs a histogram with counts")
    expected = np.outer(merged.sum(axis=1), merged.sum(axis=0)) / merged.sum()
    dof = (merged.shape[0] - 1) * (merged.shape[1] - 1)
    if dof == 0:
        return 0.0, 0, 1.0
    deviation = merged - expected
    if dof == 1:
        deviation = np.sign(deviation) * np.maximum(np.abs(deviation) - 0.5, 0.0)
    statistic = float(np.sum(deviation**2 / expected))
    return statistic, dof, _upper_gamma_q(dof / 2.0, statistic / 2.0)


#: relative accuracy of the incomplete-gamma series and continued fraction
_GAMMA_EPS = 1e-16
#: most terms of either expansion; about √a terms are needed
_GAMMA_MAX_TERMS = 100_000
_GAMMA_TINY = 1e-300


def _upper_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x), the χ² survival at 2x with 2a dof.

    By the series of P = 1 − Q for x < a + 1 and by Lentz's continued
    fraction for Q otherwise (Numerical Recipes, 3rd ed., §6.2).
    """
    if x <= 0.0:
        return 1.0
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        for k in range(1, _GAMMA_MAX_TERMS):
            term *= x / (a + k)
            total += term
            if term < total * _GAMMA_EPS:
                return max(0.0, 1.0 - total * prefactor)
    else:
        b = x + 1.0 - a
        c, d = 1.0 / _GAMMA_TINY, 1.0 / b
        fraction = d
        for k in range(1, _GAMMA_MAX_TERMS):
            an = -k * (k - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) > _GAMMA_TINY else _GAMMA_TINY)
            c = b + an / c
            c = c if abs(c) > _GAMMA_TINY else _GAMMA_TINY
            fraction *= d * c
            if abs(d * c - 1.0) < _GAMMA_EPS:
                return prefactor * fraction
    raise ConvergenceError(f"incomplete gamma Q({a}, {x}) did not converge in "
                           f"{_GAMMA_MAX_TERMS} terms")


def time_bin_correlation(histogram: TofHistogram) -> float:
    """Pearson correlation of the two arrival-time coordinates."""
    counts = histogram.counts.astype(float)
    total = counts.sum()
    ts = histogram.bin_centers_signal_ns
    ti = histogram.bin_centers_idler_ns
    mean_s = (counts.sum(axis=1) @ ts) / total
    mean_i = (counts.sum(axis=0) @ ti) / total
    cov = ((ts - mean_s)[:, None] * (ti - mean_i)[None, :] * counts).sum() / total
    var_s = (counts.sum(axis=1) @ (ts - mean_s) ** 2) / total
    var_i = (counts.sum(axis=0) @ (ti - mean_i) ** 2) / total
    return float(cov / np.sqrt(var_s * var_i))
